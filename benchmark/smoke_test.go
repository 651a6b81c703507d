package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs both passes of every workload at smoke size
// (k ≤ 6, ≤ 50 requests per client and window, ≤ 30 epochs), so that plain
// `go test ./...` keeps the harness compiling, running and clean.
func TestSmokeEveryWorkload(t *testing.T) {
	out := t.TempDir()
	before := runtime.NumGoroutine()
	defer func() {
		// Every server, agent and client a workload starts must be gone
		// when it returns, or the next workload's numbers carry it.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
		}
	}()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), w, options{sz: smoke(), seed: refSeed, outDir: out}, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range passDefs(traced) {
				s, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				}
				if !traced && !(s.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g; the driver needs every one above 0", w.Name, d.Name, s.Value)
				}
			}
			if traced {
				if c := res.Metrics["trace.coverage_frac"].Value; c < 0.9 {
					t.Errorf("%s: layer spans cover %.2f of the traced wall, want ≥ 0.9", w.Name, c)
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
			var buf bytes.Buffer
			printResult(&buf, res)
			printContractLine(&buf, res)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || line.Correct == nil || line.Failed == nil ||
				line.Attempted < 1 || len(line.Metrics) != len(passDefs(traced)) {
				t.Errorf("%s traced=%v: last line %q is not the driver's object (%v)", w.Name, traced, lines[len(lines)-1], err)
			}
		}
	}
	if ents, _ := filepath.Glob(filepath.Join(out, "store-*")); len(ents) != 0 {
		t.Errorf("scratch stores left behind: %v", ents)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go instead of comparing")

// benchmarkJSON is the driver's file shape.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonEndToEnd `json:"end_to_end"`
	PerLayer   []jsonPerLayer `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type jsonEndToEnd struct {
	jsonPerLayer
	Bound float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to spec.go: same
// workloads, same metrics, same units, directions and bounds, within the
// driver's limits. `go test ./benchmark -run BenchmarkJSON -update` rewrites
// the file after spec.go changed.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want := benchmarkJSON{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		want.Workloads = append(want.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		want.EndToEnd = append(want.EndToEnd, jsonEndToEnd{jsonPerLayer{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, jsonPerLayer{d.Name, d.Unit, d.Better})
	}
	if len(want.Workloads) > 8 || len(want.EndToEnd) > 16 || len(want.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: the driver takes 8, 16 and 128", len(want.Workloads), len(want.EndToEnd), len(want.PerLayer))
	}
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; run go test ./benchmark -run BenchmarkJSON -update\nfile: %+v\nspec: %+v", got, want)
	}
}

func TestBareTrace(t *testing.T) {
	cases := [][2]string{
		{"-trace", "-trace 1"},
		{"--trace 0 -seed 2", "--trace 0 -seed 2"},
		{"-workload x -trace -seed 2", "-workload x -trace 1 -seed 2"},
		{"--workload x --seed 3 --seconds 20 --trace 1", "--workload x --seed 3 --seconds 20 --trace 1"},
	}
	for _, c := range cases {
		if got := strings.Join(bareTrace(strings.Fields(c[0])), " "); got != c[1] {
			t.Errorf("bareTrace(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}
