package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flattree/internal/experiments"
	"flattree/internal/graph"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/serve"
)

// serveRig is one in-process `flatsim serve`: serve.New + Run on a loopback
// listener, configured the way cmd/flatsim configures it.
type serveRig struct {
	srv    *serve.Server
	cfg    serve.Config
	base   string
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	runErr error
}

// serveDefaults is what `flatsim serve` passes as Config.Defaults without
// flags; every measured request names its own seed.
func serveDefaults() experiments.Config { return experiments.DefaultConfig() }

// startServe opens the store, starts serving and waits until /healthz
// answers.
func startServe(ctx context.Context, e *env, dir string, c *client) (*serveRig, error) {
	cfg := serve.Config{
		StoreDir: dir, Solvers: e.sz.W, QueueDepth: 2 * e.sz.W, JobParallelism: 1,
		Defaults: serveDefaults(),
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithCancel(ctx)
	r := &serveRig{srv: srv, cfg: cfg, base: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- srv.Run(rctx, l) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		rep, err := c.get(ctx, r.base+"/healthz")
		if err == nil && rep.status == http.StatusOK {
			return r, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("serve: /healthz not answering: %v (status %d); stop: %v", err, rep.status, r.stop())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server and waits for Run to return; later calls return
// the same error.
func (r *serveRig) stop() error {
	r.once.Do(func() {
		r.cancel()
		r.runErr = <-r.done
	})
	return r.runErr
}

// client is one closed-loop load-generator client: one keep-alive
// connection, the next request only after the previous reply.
type client struct {
	hc   *http.Client
	body bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what the checks need of a response; the body stays in c.body
// until the next get.
type reply struct {
	status     int
	cache, key string
	approx     string
}

func (c *client) get(ctx context.Context, url string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return reply{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	h := resp.Header
	return reply{resp.StatusCode, h.Get("X-Flatsim-Cache"), h.Get("X-Flatsim-Key"), h.Get("X-Flatsim-Approximate")}, nil
}

// cell is one /v1/cell request of the cold set, with the spec a direct
// experiments.Cell call needs and, once served, its body and store key.
type cell struct {
	url  string
	col  int // index among fig7's data columns
	cfg  experiments.Config
	spec experiments.CellSpec
	body []byte
	key  string
	ms   float64 // cold latency
}

func cellURL(base string, q url.Values) string { return base + "/v1/cell?" + q.Encode() }

// coldCells is one round's cold set in canonical column order: every fig7
// column at kmin..kmax under the cell seed drawn from the round's instance
// seed, so rounds of the same instance request the same cells.
func coldCells(e *env, base string, seed uint64) ([]*cell, error) {
	cols, err := experiments.Columns("fig7")
	if err != nil {
		return nil, err
	}
	var out []*cell
	for ci, col := range cols {
		cfg := serveDefaults()
		cfg.KMin, cfg.KMax, cfg.Seed, cfg.Parallelism = e.sz.ServeKMin, e.sz.ServeKMax, parallel.NewSeedStream(seed).Seed(0), 1
		q := url.Values{"exp": {"fig7"}, "col": {col},
			"kmin": {strconv.Itoa(cfg.KMin)}, "kmax": {strconv.Itoa(cfg.KMax)}, "seed": {strconv.FormatUint(cfg.Seed, 10)}}
		out = append(out, &cell{url: cellURL(base, q), col: ci, cfg: cfg, spec: experiments.CellSpec{Experiment: "fig7", Column: col}})
	}
	return out, nil
}

// loadgen is the state the phases of one round share.
type loadgen struct {
	e       *env
	rig     *serveRig
	clients []*client
	cells   []*cell
	// hits and misses are what the generator saw, for the /metricsz check.
	hits, misses atomic.Int64
	failMu       sync.Mutex
}

// bad counts one failed request (from any client goroutine).
func (g *loadgen) bad(format string, args ...any) {
	g.failMu.Lock()
	g.e.res.fail(1, format, args...)
	g.failMu.Unlock()
}

// request does one GET under a span and checks it: 200 (a 429 is a
// failure — QueueDepth=2W with W clients cannot shed), the expected
// X-Flatsim-Cache, not approximate, and the expected body if one is given.
func (g *loadgen) request(ctx context.Context, c *client, b *spanBuf, parent open, url, wantCache string, wantBody []byte) (reply, time.Duration) {
	sp := b.start(parent, "serve."+wantCache)
	t0 := time.Now()
	rep, err := c.get(ctx, url)
	lat := time.Since(t0)
	sp.end()
	switch {
	case err != nil:
		g.bad("%s: %v", url, err)
	case rep.status != http.StatusOK:
		g.bad("%s: status %d: %s", url, rep.status, bytes.TrimSpace(c.body.Bytes()))
	case rep.cache != wantCache:
		g.bad("%s: X-Flatsim-Cache %q, want %q", url, rep.cache, wantCache)
	case rep.approx != "false" || bytes.Contains(c.body.Bytes(), []byte("~")):
		g.bad("%s: approximate cell", url)
	case wantBody != nil && !bytes.Equal(c.body.Bytes(), wantBody):
		g.bad("%s: warm body differs from the cold body", url) // output check (5)
	}
	if wantCache == "hit" {
		g.hits.Add(1)
	} else {
		g.misses.Add(1)
	}
	return rep, lat
}

// cold computes every cell of the cold set once, W clients pulling from one
// queue shuffled by the round's instance seed (so rounds of one instance
// pack the same way), and returns the phase's wall time and allocation.
func (g *loadgen) cold(ctx context.Context, seed uint64) (wall time.Duration, allocMB float64) {
	order := graph.NewRNG(seed).Perm(len(g.cells))
	var next atomic.Int64
	wall, allocMB, _ = timed(func() error {
		var wg sync.WaitGroup
		for ci := 0; ci < g.e.sz.W; ci++ {
			wg.Add(1)
			go func(c *client, b *spanBuf) {
				defer wg.Done()
				root := b.start(open{}, "client")
				defer root.end()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(order) {
						return
					}
					cl := g.cells[order[i]]
					rep, lat := g.request(ctx, c, b, root, cl.url, "miss", nil)
					cl.body, cl.key, cl.ms = append([]byte(nil), c.body.Bytes()...), rep.key, lat.Seconds()*1e3
				}
			}(g.clients[ci], g.e.tr.buf())
		}
		wg.Wait()
		return nil // a failed request is counted, not returned
	})
	g.e.res.Attempted += len(g.cells)
	return wall, allocMB
}

// window is what one measuring window saw.
type window struct {
	hitUS         []float64 // every hit's latency
	hitRPS        float64   // hit completions per second
	missMS        []float64 // every miss's latency (mixed windows)
	allocKBPerHit float64   // KB allocated per hit, client included
}

// hitLoop cycles the stored cells until the deadline (or MaxRequests),
// expecting a byte-identical hit every time.
func (g *loadgen) hitLoop(ctx context.Context, c *client, b *spanBuf, start int, deadline time.Time) []float64 {
	root := b.start(open{}, "client")
	defer root.end()
	lat := make([]float64, 0, 1<<14)
	for n := 0; time.Now().Before(deadline) && (g.e.sz.MaxRequests == 0 || n < g.e.sz.MaxRequests); n++ {
		cl := g.cells[(start+n)%len(g.cells)]
		_, d := g.request(ctx, c, b, root, cl.url, "hit", cl.body)
		lat = append(lat, float64(d)/1e3)
	}
	return lat
}

// missSeq numbers the miss cells: each seed is used once per process, so
// every miss is a fresh address in whichever store is open.
var missSeq atomic.Uint64

// missLoop requests a fresh cheap cell every time — fig5's fat-tree column
// at kmax=8 computes in about a millisecond and the seed only changes the
// address — so every request computes, renders and persists with two fsyncs.
func (g *loadgen) missLoop(ctx context.Context, c *client, b *spanBuf, deadline time.Time) []float64 {
	root := b.start(open{}, "client")
	defer root.end()
	var lat []float64
	for n := 0; time.Now().Before(deadline) && (g.e.sz.MaxRequests == 0 || n < g.e.sz.MaxRequests); n++ {
		q := url.Values{"exp": {"fig5"}, "col": {"fat-tree"}, "kmax": {"8"}, "seed": {strconv.FormatUint(missSeq.Add(1), 10)}}
		_, d := g.request(ctx, c, b, root, cellURL(g.rig.base, q), "miss", nil)
		lat = append(lat, d.Seconds()*1e3)
	}
	return lat
}

// measure runs one window of dur: readers clients cycling hits and, when
// mixed, one more client missing beside them.
func (g *loadgen) measure(ctx context.Context, dur time.Duration, readers int, mixed bool) window {
	var w window
	per := make([][]float64, readers)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for ci := 0; ci < readers; ci++ {
		wg.Add(1)
		go func(ci int, b *spanBuf) {
			defer wg.Done()
			per[ci] = g.hitLoop(ctx, g.clients[ci], b, ci*len(g.cells)/readers, deadline)
		}(ci, g.e.tr.buf())
	}
	if mixed {
		wg.Add(1)
		go func(b *spanBuf) {
			defer wg.Done()
			w.missMS = g.missLoop(ctx, g.clients[readers], b, deadline)
		}(g.e.tr.buf())
	}
	wg.Wait()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	for _, lat := range per {
		w.hitUS = append(w.hitUS, lat...)
	}
	w.hitRPS = float64(len(w.hitUS)) / elapsed.Seconds()
	w.allocKBPerHit = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / float64(max(1, len(w.hitUS)))
	g.e.res.Attempted += len(w.hitUS) + len(w.missMS)
	return w
}

// round is one repetition of the whole workload on a fresh store: set-up,
// the cold set, then warm and mixed windows in turn. A run is several
// rounds and every metric is a median over them, so each number is sampled
// across the whole run and a slow stretch of the host moves a minority of
// the samples, not the result.
type round struct {
	g        *loadgen
	setupS   float64
	coldWall time.Duration
	coldMB   float64
	warm     []window
	mixed    []window
	sv       metrics.ServiceStats
	// servedMS and directMS are the cold latency and the direct
	// experiments.Cell time of the cells output check (5) recomputed.
	servedMS, directMS []float64
}

func (r *round) coldMS() []float64 {
	ms := make([]float64, len(r.g.cells))
	for i, cl := range r.g.cells {
		ms[i] = cl.ms
	}
	return ms
}

// bodies is the round's served cells in canonical order, concatenated.
func (r *round) bodies() []byte {
	var b bytes.Buffer
	for _, cl := range r.g.cells {
		b.Write(cl.body)
	}
	return b.Bytes()
}

// runRound serves the instance drawn from seed on the fresh store number n.
// Set-up is what a start costs: open the store, listen, wait for /healthz,
// one reduced-size cold request through the whole path. direct is how many
// of the cells are recomputed with experiments.Cell for output check (5).
// The caller stops the rig and removes its store.
func runRound(ctx context.Context, e *env, clients []*client, seed uint64, n int, windows int, dur time.Duration, direct int) (*round, error) {
	began := time.Now()
	rig, err := startServe(ctx, e, filepath.Join(e.outDir, fmt.Sprintf("store-%d-%d", os.Getpid(), n)), clients[0])
	if err != nil {
		return nil, err
	}
	g := &loadgen{e: e, rig: rig, clients: clients}
	r := &round{g: g}
	q := url.Values{"exp": {"fig7"}, "col": {"fat-tree/loc"}, "kmin": {"4"}, "kmax": {strconv.Itoa(e.sz.ServeWarmKMax)}}
	g.request(ctx, clients[0], nil, open{}, cellURL(rig.base, q), "miss", nil)
	r.setupS = time.Since(began).Seconds()
	e.res.Attempted++

	if g.cells, err = coldCells(e, rig.base, seed); err != nil {
		return r, err
	}
	r.coldWall, r.coldMB = g.cold(ctx, seed)
	for i := 0; i < windows; i++ {
		r.warm = append(r.warm, g.measure(ctx, dur, e.sz.Readers, false))
		r.mixed = append(r.mixed, g.measure(ctx, dur, 1, true))
	}

	// Output check (5), second part: a direct experiments.Cell of the same
	// spec prints the served bytes.
	for _, cl := range g.cells[:min(len(g.cells), direct)] {
		t0 := time.Now()
		tab, err := experiments.Cell(ctx, cl.cfg, cl.spec)
		if err != nil {
			return r, err
		}
		tsv, err := renderTSV([]*experiments.Table{tab})
		if err != nil {
			return r, err
		}
		r.directMS, r.servedMS = append(r.directMS, time.Since(t0).Seconds()*1e3), append(r.servedMS, cl.ms)
		e.res.Attempted++
		if !bytes.Equal(tsv, cl.body) {
			e.res.fail(1, "%s: served body differs from a direct experiments.Cell", cl.url)
		}
	}

	// Output check (5), third part: /metricsz agrees with what the
	// generator sent, and nothing was shed, shared or errored.
	var mz struct {
		Service metrics.ServiceStats `json:"service"`
	}
	if _, err := clients[0].get(ctx, rig.base+"/metricsz"); err != nil {
		return r, err
	}
	if err := json.Unmarshal(clients[0].body.Bytes(), &mz); err != nil {
		return r, fmt.Errorf("/metricsz: %w", err)
	}
	r.sv = mz.Service
	if r.sv.Hits != g.hits.Load() || r.sv.Misses != g.misses.Load() || r.sv.Shared != 0 || r.sv.Sheds != 0 || r.sv.Errors != 0 {
		e.res.fail(1, "/metricsz %+v, generator saw %d hits %d misses and expects no shared, shed or errored request", r.sv, g.hits.Load(), g.misses.Load())
	}
	return r, nil
}

// close stops the round's server and removes its store.
func (r *round) close() error {
	err := r.g.rig.stop()
	if rerr := os.RemoveAll(r.g.rig.cfg.StoreDir); err == nil {
		err = rerr
	}
	return err
}

// directRounds is how many rounds of a run recompute cells directly (the
// seed's round and the first anchor round), and directCells how many each.
const directRounds, directCells = 2, 1

// everyCell asks runRound to recompute the whole cold set directly.
const everyCell = 1 << 30

func runServe(ctx context.Context, e *env) error {
	// The mixed phase needs a reader and a writer even on a 1-core host.
	clients := make([]*client, max(e.sz.W, e.sz.Readers+1))
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	if e.traced() {
		r, err := runRound(ctx, e, clients, e.seed, 0, 1, e.sz.TracedWindow, everyCell)
		if r != nil {
			defer r.close() // on an early return the earlier error is the one to report
		}
		if err != nil {
			return err
		}
		if e.seed == refSeed {
			e.compareReference(r.bodies(), lambdaTolerance)
		} else {
			e.res.Reference = "the traced round is the seed's instance, which has no reference; the untraced pass checks the anchor"
		}
		return r.layers(ctx)
	}

	// Rounds until the budget is spent, at least MinReps: the first serves
	// the seed's instance, every later one the anchor (see repSeed).
	var rounds []*round
	var anchor []byte
	began := time.Now()
	for n := 0; n < e.sz.MinReps || fits(began, n, e.sz.Seconds); n++ {
		direct := 0
		if n < directRounds {
			direct = directCells
		}
		r, err := runRound(ctx, e, clients, e.repSeed(n), n, e.sz.Windows, e.sz.WindowDur, direct)
		if r != nil {
			if cerr := r.close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		if e.repSeed(n) != refSeed {
			continue
		}
		// Output check (1): every anchor round serves the same bytes.
		if anchor == nil {
			anchor = r.bodies()
		} else if !bytes.Equal(anchor, r.bodies()) {
			e.res.fail(len(r.g.cells), "round %d served different bytes than an earlier round of the same instance", n)
		}
	}
	e.compareReference(anchor, lambdaTolerance) // output check (4)

	var warm, mixed []window
	var warmUS, mixedUS, missMS []float64
	for _, r := range rounds {
		warm, mixed = append(warm, r.warm...), append(mixed, r.mixed...)
	}
	for i := range warm {
		warmUS, mixedUS, missMS = append(warmUS, warm[i].hitUS...), append(mixedUS, mixed[i].hitUS...), append(missMS, mixed[i].missMS...)
	}
	e.res.Notes = append(e.res.Notes,
		fmt.Sprintf("%d rounds, each a fresh store: set-up, %d cold cells, %d warm and %d mixed windows of %v", len(rounds), len(rounds[0].g.cells), e.sz.Windows, e.sz.Windows, e.sz.WindowDur),
		tailNote("warm hit latency", warmUS, "us"), tailNote("hit latency beside the writer", mixedUS, "us"),
		tailNote("miss latency beside the reader", missMS, "ms"))
	eachRound := func(f func(*round) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = f(r)
		}
		return out
	}
	e.res.samples("setup_s", eachRound(func(r *round) float64 { return r.setupS }))
	e.res.samples("wall_s", eachRound(func(r *round) float64 { return r.coldWall.Seconds() }))
	e.res.samples("alloc_mb", eachRound(func(r *round) float64 { return r.coldMB }))
	e.res.samples("cold_mean_ms", eachRound(func(r *round) float64 { return mean(r.coldMS()) }))
	e.res.samples("warm_p50_us", eachWindow(warm, func(w window) float64 { return median(w.hitUS) }))
	e.res.samples("warm_rps", eachWindow(warm, func(w window) float64 { return w.hitRPS }))
	e.res.samples("mixed_warm_rps", eachWindow(mixed, func(w window) float64 { return w.hitRPS }))
	e.res.samples("mixed_miss_ms", eachWindow(mixed, func(w window) float64 { return mean(w.missMS) }))
	return nil
}

// layers finishes the traced pass: direct probes of the layers under the
// request path, the store closed and reopened, and the solver replay.
func (r *round) layers(ctx context.Context) error {
	g, e, rig, sv := r.g, r.g.e, r.g.rig, r.sv
	warm, mixed, direct := r.warm[0], r.mixed[0], g.cells
	floor := g.probe(ctx, rig.base+"/healthz", http.StatusOK)
	e.res.layer("serve.http_floor_us", floor)
	e.res.layer("serve.bad_request_us", g.probe(ctx, rig.base+"/v1/cell?exp=nope", http.StatusBadRequest))
	warmUS := sorted(warm.hitUS)
	e.res.layer("serve.hit_over_floor_us", quantileSorted(warmUS, 0.5)-floor)
	e.res.layer("serve.warm_p99_us", quantileSorted(warmUS, 0.99))
	e.res.layer("serve.warm_p999_us", quantileSorted(warmUS, 0.999))
	e.res.layer("serve.mixed_warm_p99_us", quantileSorted(sorted(mixed.hitUS), 0.99))
	e.res.layer("serve.alloc_kb_per_hit", warm.allocKBPerHit)
	cs := sorted(r.coldMS())
	e.res.layer("serve.cold_p50_ms", quantileSorted(cs, 0.5))
	e.res.layer("serve.cold_p90_ms", quantileSorted(cs, 0.9))
	e.res.layer("serve.miss_overhead_ms", mean(r.servedMS)-mean(r.directMS))
	e.res.layer("serve.hits", float64(sv.Hits))
	e.res.layer("serve.misses", float64(sv.Misses))
	e.res.layer("serve.shared", float64(sv.Shared))
	e.res.layer("serve.sheds", float64(sv.Sheds))
	e.res.layer("serve.errors", float64(sv.Errors))
	if err := g.storeProbes(); err != nil {
		return err
	}

	// Close and reopen the populated store: every entry is re-verified.
	entries := rig.srv.Store().Stats().Entries
	if err := rig.stop(); err != nil {
		return err
	}
	t0 := time.Now()
	again, err := serve.New(rig.cfg)
	if err != nil {
		return err
	}
	e.res.layer("serve.reopen_ms", time.Since(t0).Seconds()*1e3)
	e.res.layer("store.entries", float64(entries))
	if got := again.Store().Stats(); got.Entries != entries || got.Quarantined != 0 || got.TornRemoved != 0 {
		e.res.fail(1, "reopened store: %+v, want %d clean entries", got, entries)
	}

	// The solver behind the cold phase, replayed column by column so mcf.*
	// can be read on this workload too.
	b := e.tr.buf()
	var st solveStats
	root := b.start(open{}, "replay")
	for _, cl := range direct {
		served := parseTSV(cl.body)[0]
		got, err := replayFig(ctx, fig7Layout, cl.cfg, cl.col, b, root, served.title, served.header, &st)
		if err != nil {
			return err
		}
		tsv, err := renderTSV([]*experiments.Table{got})
		if err != nil {
			return err
		}
		if !bytes.Equal(tsv, cl.body) {
			e.res.fail(1, "%s: replayed column differs from the served body", cl.url)
		}
	}
	root.end()
	st.check(e.res)
	lt := foldLayers(e.tr.all())
	st.layers(e.res, lt)
	e.buildLayers(lt)
	e.traceLayers(lt)
	return nil
}

func eachWindow(ws []window, f func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// probe is the p50 latency in µs of ProbeN sequential GETs that must answer
// with the given status.
func (g *loadgen) probe(ctx context.Context, url string, want int) float64 {
	c := g.clients[0]
	lat := make([]float64, 0, g.e.sz.ProbeN)
	for i := 0; i < g.e.sz.ProbeN; i++ {
		t0 := time.Now()
		rep, err := c.get(ctx, url)
		lat = append(lat, float64(time.Since(t0))/1e3)
		if err != nil || rep.status != want {
			g.bad("probe %s: status %d, want %d (%v)", url, rep.status, want, err)
		}
	}
	g.e.res.Attempted += len(lat)
	return median(lat)
}

// storeProbes times Store.Get and Store.Put directly, on the served
// directory and with the served payload sizes.
func (g *loadgen) storeProbes() error {
	st := g.rig.srv.Store()
	get := make([]float64, 0, g.e.sz.ProbeN)
	for i := 0; i < g.e.sz.ProbeN; i++ {
		cl := g.cells[i%len(g.cells)]
		t0 := time.Now()
		body, ok, err := st.Get(cl.key)
		get = append(get, float64(time.Since(t0))/1e3)
		if err != nil || !ok || !bytes.Equal(body, cl.body) {
			return fmt.Errorf("store probe: Get(%s) = %d bytes, %v, %v", cl.key, len(body), ok, err)
		}
	}
	g.e.res.layer("store.get_us", median(get))
	n := max(1, g.e.sz.ProbeN/10)
	put := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("benchmark store probe %d", i)))
		t0 := time.Now()
		if err := st.Put(hex.EncodeToString(sum[:]), g.cells[i%len(g.cells)].body); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		put = append(put, time.Since(t0).Seconds()*1e3)
	}
	g.e.res.layer("store.put_ms", median(put))
	g.e.res.Attempted += len(get) + len(put)
	return nil
}
