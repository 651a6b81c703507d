package serve

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"flattree/internal/experiments"
)

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	if cfg.Defaults.KMax == 0 {
		cfg.Defaults = experiments.Config{KMin: 4, KMax: 6, KStep: 2, Seed: 1, Epsilon: 0.3}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestColdWarmByteIdentical pins the cache correctness criterion: the warm
// response serves exactly the cold computation's bytes, and both match a
// direct library call.
func TestColdWarmByteIdentical(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u := ts.URL + "/v1/cell?exp=fig5&col=fat-tree"
	cold, coldBody := get(t, ts.Client(), u)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.StatusCode, coldBody)
	}
	if c := cold.Header.Get("X-Flatsim-Cache"); c != "miss" {
		t.Errorf("cold cache header %q; want miss", c)
	}
	warm, warmBody := get(t, ts.Client(), u)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", warm.StatusCode)
	}
	if c := warm.Header.Get("X-Flatsim-Cache"); c != "hit" {
		t.Errorf("warm cache header %q; want hit", c)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm response differs from cold:\n--- cold\n%s--- warm\n%s", coldBody, warmBody)
	}
	if warm.Header.Get("X-Flatsim-Key") != cold.Header.Get("X-Flatsim-Key") {
		t.Error("cold and warm keys differ")
	}

	tab, err := experiments.Cell(context.Background(), s.cfg.Defaults, experiments.CellSpec{Experiment: "fig5", Column: "fat-tree"})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tab.WriteTSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBody, want.Bytes()) {
		t.Errorf("served cell differs from direct computation:\n--- direct\n%s--- served\n%s", want.Bytes(), coldBody)
	}

	st := s.counters.Read()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("counters = %+v; want 1 hit, 1 miss", st)
	}

	// A fresh server over the same store directory serves the same bytes
	// — persistence across restart is the point of the store.
	s2 := testServer(t, Config{StoreDir: s.cfg.StoreDir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	restarted, restartedBody := get(t, ts2.Client(), ts2.URL+"/v1/cell?exp=fig5&col=fat-tree")
	if restarted.Header.Get("X-Flatsim-Cache") != "hit" || !bytes.Equal(restartedBody, coldBody) {
		t.Error("restarted server did not serve the persisted cell")
	}
}

// TestSingleflightSharesOneSolve pins the dedup criterion under -race:
// N concurrent identical requests run exactly one computation; the rest
// share its result.
func TestSingleflightSharesOneSolve(t *testing.T) {
	s := testServer(t, Config{})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.beforeCompute = func(key string) {
		started <- key
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 6
	type result struct {
		cache string
		body  []byte
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := get(t, ts.Client(), ts.URL+"/v1/cell?exp=fig6&col=fat-tree")
			results <- result{resp.Header.Get("X-Flatsim-Cache"), body}
		}()
	}
	<-started
	// Hold the leader until every follower has joined its flight, so the
	// assertion below is deterministic, not a thundering-herd race.
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.waiters.Load() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers joined the flight", s.flights.waiters.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	counts := map[string]int{}
	var first []byte
	for r := range results {
		counts[r.cache]++
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Error("concurrent identical requests returned different bodies")
		}
	}
	if counts["miss"] != 1 || counts["shared"] != n-1 {
		t.Errorf("cache outcomes = %v; want 1 miss, %d shared", counts, n-1)
	}
	st := s.counters.Read()
	if st.Misses != 1 || st.Shared != n-1 {
		t.Errorf("counters = %+v; want exactly one solve, %d shared", st, n-1)
	}
}

// TestOverloadSheds429 pins admission control: with one solver slot and a
// queue depth of one, the third distinct in-flight request is shed with
// 429 + Retry-After while the admitted two complete normally.
func TestOverloadSheds429(t *testing.T) {
	s := testServer(t, Config{Solvers: 1, QueueDepth: 1, RetryAfter: 7 * time.Second})
	started := make(chan string, 16)
	release := make(chan struct{})
	s.beforeCompute = func(key string) {
		started <- key
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	urls := []string{
		ts.URL + "/v1/cell?exp=fig5&col=fat-tree",
		ts.URL + "/v1/cell?exp=fig5&col=random-graph",
		ts.URL + "/v1/cell?exp=fig6&col=fat-tree",
	}
	statuses := make(chan int, 2)
	var wg sync.WaitGroup
	for _, u := range urls[:2] {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			resp, _ := get(t, ts.Client(), u)
			statuses <- resp.StatusCode
		}(u)
	}
	// First request holds the only slot (it reached beforeCompute); the
	// second is admitted and waiting for the slot.
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for s.waiting.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("second request never queued (waiting=%d)", s.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := get(t, ts.Client(), urls[2])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d (%s); want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q; want 7", ra)
	}

	close(release)
	wg.Wait()
	close(statuses)
	for code := range statuses {
		if code != http.StatusOK {
			t.Errorf("admitted request finished with %d; want 200", code)
		}
	}
	st := s.counters.Read()
	if st.Sheds != 1 || st.Misses != 2 {
		t.Errorf("counters = %+v; want 1 shed, 2 misses", st)
	}
}

// TestDeadlineDegradesToApproximate pins deadline propagation end to end:
// a client timeout far below the solve time yields a 200 with a
// `~`-suffixed approximate cell — not an error — and the truncated result
// is never cached. The cell is a many-source one (fig8's all-to-all): a
// single-hot-spot fig7 cell is solved exactly in milliseconds and has no
// approximate answer to degrade to. At k = 12 and ε = 0.01 the cell takes
// 81 s unbounded on a 2-core host, 270× the timeout, so it cannot converge
// in time.
func TestDeadlineDegradesToApproximate(t *testing.T) {
	s := testServer(t, Config{
		Defaults: experiments.Config{KMin: 12, KMax: 12, KStep: 2, Seed: 1, Epsilon: 0.01},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u := ts.URL + "/v1/cell?exp=fig8&col=fat-tree/weak&timeout=300ms"
	resp, body := get(t, ts.Client(), u)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Flatsim-Approximate") != "true" {
		t.Fatalf("a cell that needs ~80 s converged inside a 300ms timeout; body:\n%s", body)
	}
	if !strings.Contains(string(body), "~") {
		t.Errorf("approximate cell missing ~ marker:\n%s", body)
	}
	// Approximate results must not poison the store: the same request
	// without a timeout starts cold (miss), not from the truncated bytes.
	if st := s.Store().Stats(); st.Entries != 0 {
		t.Errorf("store has %d entries after an approximate-only run; want 0", st.Entries)
	}
	if st := s.counters.Read(); st.DeadlineDegrades != 1 {
		t.Errorf("counters = %+v; want 1 deadline degrade", st)
	}
}

// TestDrainFinishesInflightAndPersists pins graceful drain: cancelling
// Run's context closes the listener but lets the admitted request finish;
// its cell persists and Run returns nil.
func TestDrainFinishesInflightAndPersists(t *testing.T) {
	s := testServer(t, Config{DrainGrace: 30 * time.Second})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.beforeCompute = func(key string) {
		started <- key
		<-release
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runDone <- s.Run(ctx, l)
	}()

	base := "http://" + l.Addr().String()
	respCh := make(chan *http.Response, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := get(t, http.DefaultClient, base+"/v1/cell?exp=fig5&col=fat-tree")
		respCh <- resp
	}()
	<-started

	cancel() // SIGTERM equivalent: stop accepting, drain in-flight
	// The drain must wait for the in-flight request, so Run cannot have
	// returned yet.
	select {
	case err := <-runDone:
		t.Fatalf("Run returned %v while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	if resp := <-respCh; resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight request finished with %d; want 200", resp.StatusCode)
	}
	if err := <-runDone; err != nil {
		t.Errorf("Run = %v; want nil after clean drain", err)
	}
	wg.Wait()
	if st := s.Store().Stats(); st.Entries != 1 {
		t.Errorf("store has %d entries after drain; want the drained cell persisted", st.Entries)
	}
	// The listener is closed: new connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestBadRequests pins the 400 responses: unknown and invalid parameters
// fail loudly instead of silently computing a default cell.
func TestBadRequests(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []struct {
		query string
		want  string
	}{
		{"exp=nope", "unknown experiment"},
		{"exp=fig5&kMax=8", "unknown parameters"},
		{"exp=fig5&col=zzz", "no column"},
		{"exp=fig7&eps=0.9", "in (0,0.5)"},
		{"exp=fig7&trials=0", "> 0"},
		{"exp=selfheal&failfrac=1.5", "in (0,1)"},
		{"exp=soak&slo=2", "in (0,1]"},
		{"exp=fig5&timeout=-1s", "non-negative"},
		{"exp=fig5&kmin=8&kmax=4", "kmin=8 > kmax=4"},
		{"exp=fig5&kmin=5", `kmin="5" must be an integer >= 0 and even`},
		{"exp=fig5&kmin=4&kstep=3&kmax=10", `kstep="3" must be an integer > 0 and even`},
		{"exp=faultsrecovery&k=7", ">= 4 and even"},
		{"exp=soak&mix=1,1", "four comma-separated weights"},
	}
	for _, c := range cases {
		resp, body := get(t, ts.Client(), ts.URL+"/v1/cell?"+c.query)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d; want 400", c.query, resp.StatusCode)
		}
		if !strings.Contains(string(body), c.want) {
			t.Errorf("%s: body %q does not mention %q", c.query, body, c.want)
		}
	}
}

// TestColumnsAndMetricsEndpoints covers the two discovery endpoints.
func TestColumnsAndMetricsEndpoints(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts.Client(), ts.URL+"/v1/columns?exp=fig7")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "fat-tree/loc") {
		t.Errorf("columns: %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts.Client(), ts.URL+"/v1/columns?exp=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("columns for unknown experiment: %d; want 400", resp.StatusCode)
	}
	resp, body = get(t, ts.Client(), ts.URL+"/metricsz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "\"service\"") {
		t.Errorf("metricsz: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
}

// TestAddressSeparatesIdentities pins the content address: every identity
// knob lands in a distinct key, the timeout and the worker count do not
// split it, and two spellings of one cell — a default left out or written
// down — share it.
func TestAddressSeparatesIdentities(t *testing.T) {
	defaults := experiments.Config{KMin: 4, KMax: 8, KStep: 2, Seed: 1, Epsilon: 0.1}
	parse := func(query string) *experiments.Request {
		t.Helper()
		q, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		req, err := parseCellRequest(defaults, q)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return req
	}
	const baseQuery = "exp=fig7&col=fat-tree/loc"
	base := func() *experiments.Request { return parse(baseQuery) }
	seen := map[string]string{}
	add := func(name, key string) {
		if prev, ok := seen[key]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[key] = name
	}
	add("base", cellKey("v1", base()))
	add("code", cellKey("v2", base()))
	add("column", cellKey("v1", parse("exp=fig7&col=fat-tree/noloc")))
	// Every identity knob splits the address: move each to the first
	// candidate its domain admits that is not the value base has.
	for _, k := range experiments.Knobs() {
		if !k.Identity {
			continue
		}
		moved := false
		for _, cand := range []string{"6", "0.15", "1,1,1,1"} {
			req, was := base(), k.Get(base())
			if k.Set(req, cand) == nil && k.Get(req) != was {
				add(k.Name, cellKey("v1", req))
				moved = true
				break
			}
		}
		if !moved {
			t.Errorf("no candidate value moves knob %s; extend the list", k.Name)
		}
	}

	// The timeout and the worker count must NOT split the address.
	if cellKey("v1", parse(baseQuery+"&timeout=1s")) != cellKey("v1", base()) {
		t.Error("timeout leaked into the content address")
	}
	req := base()
	req.Config.Parallelism = 7
	if cellKey("v1", req) != cellKey("v1", base()) {
		t.Error("parallelism leaked into the content address")
	}

	// Equal identities ⇒ equal address: a default spelled out, in any
	// spelling, is the cell that leaves it out.
	for _, pair := range [][2]string{
		{"exp=selfheal", "exp=selfheal&failfrac=0.25&batch=1"},
		{"exp=fig7", "exp=fig7&trials=1"},
		{"exp=faults&kmax=8", "exp=faults&kmax=8&k=8"},
		{"exp=soak", "exp=soak&rate=1&horizon=20&windowcost=0.25&slo=0.9&episodes=0"},
		{"exp=profile", "exp=profile&k=16"},
		{"exp=hybrid", "exp=hybrid&k=10"},
		{"exp=soak", "exp=soak&mix=5,3,1.0,1"},
		{"exp=latency", "exp=latency&load=0.1"},
		{"exp=faultsrecovery", "exp=faultsrecovery&switchfrac=-0&burstfrac=0.0&convfrac=0e0"},
		{"exp=fig7&eps=0.1", "exp=fig7&eps=1e-1&kstep=02"},
	} {
		if cellKey("v1", parse(pair[0])) != cellKey("v1", parse(pair[1])) {
			t.Errorf("%q and %q name one cell but hash to different addresses", pair[0], pair[1])
		}
	}
}
