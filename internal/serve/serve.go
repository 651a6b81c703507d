// Package serve is the experiment service behind `flatsim serve`: a
// long-running HTTP server answering experiment-cell requests from a
// crash-safe content-addressed store, computing misses on a bounded solver
// pool.
//
// The robustness posture, end to end:
//
//   - Results are keyed by content address — a SHA-256 over the code version
//     and every identity knob of experiments.Knobs(), the one declaration
//     the query parser is also derived from — and the determinism contract
//     (cells are byte-identical at any parallelism) is what makes serving
//     a stored cell indistinguishable from recomputing it.
//   - Admission control bounds memory and goroutines: at most Solvers
//     cells compute concurrently, at most QueueDepth more may wait, and
//     everything beyond that is shed with 429 + Retry-After.
//   - Client deadlines propagate: the timeout parameter bounds the request
//     context, mcf stops the phase loop at the context deadline, and the
//     response degrades to a `~`-suffixed approximate λ — served, flagged,
//     and never cached.
//   - Concurrent identical requests share one computation (singleflight),
//     keyed by content address plus timeout so short-deadline truncations
//     never leak into full-solve responses.
//   - SIGTERM drains: the listener closes, in-flight cells get DrainGrace
//     to finish (completed ones persist), then their contexts cancel.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flattree/internal/experiments"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/store"
)

// Config shapes a Server.
type Config struct {
	// StoreDir is the result store's directory.
	StoreDir string
	// Solvers caps concurrently computing cells (0 = GOMAXPROCS);
	// QueueDepth caps how many more may wait for a slot before new work
	// is shed with 429 (0 = 2×Solvers).
	Solvers    int
	QueueDepth int
	// JobParallelism is the worker count inside one cell computation
	// (experiments.Config.Parallelism); 0 inherits Defaults.Parallelism.
	JobParallelism int
	// RetryAfter is the backoff hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// DrainGrace is how long in-flight computations may run after Run's
	// context ends before their contexts cancel (default 10s).
	DrainGrace time.Duration
	// ReadHeaderTimeout bounds header reads on accepted connections
	// (default 5s) — a slowloris client must not pin a connection.
	ReadHeaderTimeout time.Duration
	// CodeVersion is the code component of every content address; results
	// computed by different code must never collide (default "dev").
	CodeVersion string
	// Defaults seeds each request's experiments.Config; requests override
	// the identity fields (kmin, seed, ...) per query.
	Defaults experiments.Config
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	c.Solvers = parallel.Workers(c.Solvers)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Solvers
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.CodeVersion == "" {
		c.CodeVersion = "dev"
	}
	return c
}

// Server answers experiment-cell requests. Create with New, serve with Run.
type Server struct {
	cfg      Config
	st       *store.Store
	counters metrics.ServiceCounters
	// slots is the solver-pool semaphore; waiting counts requests holding
	// or waiting for a slot, so admission can shed at a hard bound.
	slots   chan struct{}
	waiting atomic.Int64
	flights flightGroup
	// beforeCompute, when set, runs after admission and before the cell
	// computes — a test seam to hold a leader in place deterministically.
	beforeCompute func(key string)
}

// errShed marks a request rejected at admission.
var errShed = errors.New("serve: solver pool saturated")

// New opens (and recovers) the store and builds the server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	st, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:   cfg,
		st:    st,
		slots: make(chan struct{}, cfg.Solvers),
	}, nil
}

// Store exposes the underlying result store (tests and drain logging).
func (s *Server) Store() *store.Store { return s.st }

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cell", s.handleCell)
	mux.HandleFunc("GET /v1/columns", s.handleColumns)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

// handleCell is the request path described in the package comment: content
// address → store → singleflight'd admission-controlled compute.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	req, err := parseCellRequest(s.cfg.Defaults, r.URL.Query())
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := cellKey(s.cfg.CodeVersion, req)

	if body, ok, err := s.st.Get(key); err != nil {
		s.counters.Error()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	} else if ok {
		s.counters.Hit()
		writeCell(w, key, "hit", false, body)
		return
	}

	ctx := r.Context()
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	// The flight key carries the timeout so a truncated solve is only ever
	// shared among requests that asked for that truncation.
	flightKey := key + "|" + req.Timeout.String()
	res, shared, err := s.flights.do(ctx, flightKey, func() (*cellResult, error) {
		return s.compute(ctx, key, req)
	})
	switch {
	case errors.Is(err, errShed):
		s.counters.Shed()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, "solver pool saturated, retry later", http.StatusTooManyRequests)
		return
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.counters.Error()
		http.Error(w, "computation cancelled: "+err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		s.counters.Error()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cache := "miss"
	if shared {
		cache = "shared"
		s.counters.Share()
	}
	writeCell(w, key, cache, res.approximate, res.body)
}

// compute runs one cold cell under admission control; it is the flight
// leader's body, executed once per (address, timeout) among concurrent
// identical requests.
func (s *Server) compute(ctx context.Context, key string, req *experiments.Request) (*cellResult, error) {
	// Admission: the pool holds Solvers computing + QueueDepth waiting;
	// anyone past that is shed immediately rather than queued into
	// unbounded memory.
	if s.waiting.Add(1) > int64(s.cfg.Solvers+s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return nil, errShed
	}
	defer s.waiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if s.beforeCompute != nil {
		s.beforeCompute(key)
	}
	s.counters.Miss()

	cfg := req.Config
	cfg.Parallelism = s.cfg.JobParallelism
	if cfg.Parallelism == 0 {
		cfg.Parallelism = s.cfg.Defaults.Parallelism
	}
	tab, err := experiments.Cell(ctx, cfg, req.Spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tab.WriteTSV(&buf); err != nil {
		return nil, err
	}
	res := &cellResult{body: buf.Bytes(), approximate: tab.Approximate()}
	if res.approximate {
		// A deadline-truncated cell is served but never persisted: the
		// bytes depend on machine speed, and the next cold request should
		// get the chance to converge.
		if req.Timeout > 0 {
			s.counters.DeadlineDegrade()
		}
		return res, nil
	}
	if err := s.st.Put(key, res.body); err != nil {
		return nil, err
	}
	return res, nil
}

// writeCell writes a cell response with its provenance headers.
func writeCell(w http.ResponseWriter, key, cache string, approximate bool, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	h.Set("X-Flatsim-Key", key)
	h.Set("X-Flatsim-Cache", cache)
	h.Set("X-Flatsim-Approximate", strconv.FormatBool(approximate))
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) //flatlint:ignore ignorederr a failed response write means the client went away; nothing to do server-side
}

// handleColumns lists an experiment's selectable columns as JSON; a
// whole-table experiment lists none.
func (s *Server) handleColumns(w http.ResponseWriter, r *http.Request) {
	exp := r.URL.Query().Get("exp")
	cols, err := experiments.Columns(exp)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, struct {
		Experiment string   `json:"experiment"`
		Columns    []string `json:"columns"`
	}{exp, cols})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetricsz reports the service and store counters as JSON.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Service metrics.ServiceStats `json:"service"`
		Store   store.Stats          `json:"store"`
	}{s.counters.Read(), s.st.Stats()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) //flatlint:ignore ignorederr a failed response write means the client went away; nothing to do server-side
}

// Run serves until ctx ends, then drains: stop accepting, give in-flight
// requests DrainGrace to finish (their completed cells persist via the
// normal path), cancel whatever remains, and return nil on a clean drain.
// The compute context handed to requests via BaseContext outlives ctx by
// DrainGrace — cancellation of ctx means "stop serving", not "abandon
// work already admitted".
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	computeCtx, cancelCompute := context.WithCancel(context.Background())
	defer cancelCompute()
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		BaseContext:       func(net.Listener) context.Context { return computeCtx },
	}
	var wg sync.WaitGroup
	wg.Add(1)
	serveErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		serveErr <- hs.Serve(l)
	}()

	select {
	case err := <-serveErr:
		// Listener failure before any shutdown was asked for.
		wg.Wait()
		return err
	case <-ctx.Done():
	}

	// Drain: Shutdown closes the listener and waits for in-flight
	// requests; the grace timer cancels their compute contexts if they
	// overstay, which budget-degrades or aborts the solves and lets
	// Shutdown complete.
	timer := time.AfterFunc(s.cfg.DrainGrace, cancelCompute)
	defer timer.Stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainGrace+5*time.Second)
	defer cancel()
	err := hs.Shutdown(shutCtx)
	wg.Wait()
	if err != nil {
		_ = hs.Close() //flatlint:ignore ignorederr forced close after a failed drain; the error to report is Shutdown's
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}
