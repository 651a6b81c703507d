package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// sizing is how much work each workload does. full() is what the numbers in
// README.md were taken at; smoke() is the go-test size.
type sizing struct {
	// W is both experiments.Config.Parallelism and the number of
	// load-generator clients: min(2, nproc). Client and server share the
	// same cores of one process; nothing crosses a real link.
	W int
	// Seconds is the measuring budget of one workload's untraced pass;
	// repetitions and windows are cut to fit it, never below MinReps.
	Seconds   float64
	MinReps   int
	SetupReps int

	Fig7KMax, Fig7WarmKMax int
	Fig8KMax, Fig8WarmKMax int
	APLKMax, APLWarmKMax   int

	// serve-mixed, per round: fig7's six columns at kmin..kmax cold, then
	// Windows warm windows (Readers clients) alternating with Windows mixed
	// windows of WindowDur (the traced round: one of TracedWindow each);
	// MaxRequests caps one client's requests per window (0 = time-bound
	// only); ProbeN sizes the direct probes. ServeWarmKMax sizes set-up's
	// one reduced cold request.
	ServeKMin, ServeKMax, ServeWarmKMax   int
	Readers, Windows, MaxRequests, ProbeN int
	WindowDur, TracedWindow               time.Duration
	// ProbeSSSPK and ProbeBFSK size the graph probes' flat-trees.
	ProbeSSSPK, ProbeBFSK int

	// ctrl-heal: every repetition is EpochChunk conversion epochs at
	// ConvertK, then one experiments.SelfHeal at HealK with HealTrials
	// trials; the traced pass converts TracedEpochs in one block. Set-up
	// runs WarmEpochs.
	ConvertK, EpochChunk, TracedEpochs int
	WarmEpochs                         int
	HealK, HealTrials                  int
}

func clients() int { return min(2, runtime.NumCPU()) }

func full(seconds float64) sizing {
	return sizing{
		W: clients(), Seconds: seconds, MinReps: 3, SetupReps: 5,
		Fig7KMax: 16, Fig7WarmKMax: 10,
		Fig8KMax: 8, Fig8WarmKMax: 6,
		APLKMax: 32, APLWarmKMax: 24,
		ServeKMin: 8, ServeKMax: 12, ServeWarmKMax: 10,
		Readers: clients(), Windows: 10, ProbeN: 2000,
		WindowDur: 100 * time.Millisecond, TracedWindow: time.Second,
		ProbeSSSPK: 16, ProbeBFSK: 32,
		ConvertK: 16, EpochChunk: 300, TracedEpochs: 1200, WarmEpochs: 150,
		HealK: 8, HealTrials: 2,
	}
}

func smoke() sizing {
	return sizing{
		W: clients(), Seconds: 0, MinReps: 2, SetupReps: 1,
		Fig7KMax: 6, Fig7WarmKMax: 4,
		Fig8KMax: 4, Fig8WarmKMax: 4,
		APLKMax: 6, APLWarmKMax: 4,
		ServeKMin: 4, ServeKMax: 6, ServeWarmKMax: 4,
		Readers: clients(), Windows: 1, MaxRequests: 50, ProbeN: 50,
		WindowDur: 50 * time.Millisecond, TracedWindow: 50 * time.Millisecond,
		ProbeSSSPK: 6, ProbeBFSK: 6,
		ConvertK: 6, EpochChunk: 9, TracedEpochs: 9, WarmEpochs: 3,
		HealK: 4, HealTrials: 1,
	}
}

// refSeed is the anchor instance's seed (see repSeed) and the default
// -seed; testdata/ref-<workload>.tsv holds the anchor's cells.
const refSeed = 1

// options is what every workload run of one invocation shares.
type options struct {
	sz        sizing
	seed      uint64
	outDir    string
	refDir    string // testdata directory; "" = no references at this sizing
	writeRefs bool   // (re)write the references instead of comparing
}

// env is what one workload run gets.
type env struct {
	options
	tr  *tracer // nil on the untraced pass
	res *result
}

func (e *env) traced() bool { return e.tr != nil }

// result is one (workload, pass) outcome; it is what the result file holds.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      uint64             `json:"seed"`
	Start     time.Time          `json:"start"`
	Stop      time.Time          `json:"stop"`
	Load1     [2]float64         `json:"loadavg1_start_end"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Reference string             `json:"reference"`
	TableSHA  string             `json:"table_sha256,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// maxFailureNotes bounds the failure messages kept per result.
const maxFailureNotes = 20

// fail counts n failed operations and keeps the first few reasons.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) put(name string, s summary) { r.Metrics[name] = s }

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in spec.go")
}

// e2e and layer record a metric under its spec.go unit; samples reports the
// median of several.
func (r *result) e2e(name string, v float64)   { r.put(name, single(v, unitOf(endToEnd, name))) }
func (r *result) layer(name string, v float64) { r.put(name, single(v, unitOf(perLayer, name))) }
func (r *result) samples(name string, xs []float64) {
	r.put(name, summarize(xs, unitOf(endToEnd, name)))
}

// perSecond is how many of a unit make one second.
var perSecond = map[string]float64{"s": 1, "ms": 1e3, "us": 1e6}

// finalize fills in what the workload did not measure so that every name
// of the pass is present: fail_frac from the counts; an end-to-end metric
// not defined on this workload as wall_s in that metric's unit (as a rate,
// repetitions per second); an undefined per-layer metric as 0.
func (r *result) finalize() error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	} else {
		r.e2e("fail_frac", max(failFloor, float64(r.Failed)/float64(max(1, r.Attempted))))
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; ok {
			continue
		}
		if d.definedOn(r.Workload) {
			return fmt.Errorf("%s: metric %s is defined on this workload but was not measured", r.Workload, d.Name)
		}
		if r.Traced {
			r.put(d.Name, single(0, d.Unit))
			continue
		}
		wall := r.Metrics["wall_s"].Value
		s := single(wall*perSecond[d.Unit], d.Unit)
		if d.Better == "higher" {
			s = single(1/wall, d.Unit)
		}
		s.AliasOf = "wall_s"
		r.put(d.Name, s)
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics measured, the pass has %d: one is missing from spec.go", r.Workload, len(r.Metrics), len(defs))
	}
	return nil
}

// runWorkload runs one pass of one workload and returns its finalized
// result; the trace, if any, is written under outDir.
func runWorkload(ctx context.Context, w *workloadDef, opt options, traced bool) (*result, error) {
	e := &env{options: opt}
	if traced {
		e.tr = newTracer()
	}
	e.res = &result{Workload: w.Name, Traced: traced, Seed: opt.seed, Metrics: make(map[string]summary)}
	e.res.Start, e.res.Load1[0] = time.Now(), loadavg1()
	if err := w.run(ctx, e); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if traced {
		if err := e.hostLayers(); err != nil {
			return nil, err
		}
		if err := writeTrace(filepath.Join(opt.outDir, "trace-"+w.Name+".json"), w.Name, e.tr.all()); err != nil {
			return nil, err
		}
	}
	e.res.Stop, e.res.Load1[1] = time.Now(), loadavg1()
	if e.res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", w.Name)
	}
	return e.res, e.res.finalize()
}

// traceLayers records the trace.* metrics from the folded trace: how much
// of the traced wall the layer spans cover, and what recording them cost —
// spans × the measured cost of one span ÷ traced wall. (The ratio of a traced
// to an untraced wall, which ISSUE.md names, does not exist for the sweeps:
// their traced pass is a sequential replay with no untraced twin, and the
// difference of two noisy walls would drown a cost this small.)
func (e *env) traceLayers(lt layerTimes) {
	e.res.layer("trace.coverage_frac", lt.coverage())
	e.res.layer("trace.spans", float64(lt.spans))
	e.res.layer("trace.overhead_frac", float64(lt.spans)*spanCostNS()/float64(max(1, lt.rootNS)))
}

// hostLayers records the context every number needs, and the kernel probes
// that do not depend on the workload.
func (e *env) hostLayers() error {
	e.res.layer("proc.peak_rss_mb", peakRSSMB())
	e.res.layer("host.nproc", float64(runtime.NumCPU()))
	e.res.layer("host.loadavg1", loadavg1())
	return e.graphProbes()
}

// loadavg1 is the 1-minute load average, or -1 where /proc has none.
func loadavg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// peakRSSMB is VmHWM from /proc/self/status, or -1 where there is none.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return -1
}

// provenance is recorded in every result file.
type provenance struct {
	GitCommit  string `json:"git_commit"`
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	W          int    `json:"w"`
	Seed       uint64 `json:"seed"`
	Note       string `json:"note"`
}

func readProvenance(sz sizing, seed uint64) provenance {
	p := provenance{
		GitCommit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), W: sz.W, Seed: seed,
		Note: "one process, loopback only: load generator and program under test share the same cores; link rates are not measured",
	}
	// A checkout without git (or without a repository) stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = string(bytes.TrimSpace(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.GitDirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return p
}
