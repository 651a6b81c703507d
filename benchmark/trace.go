package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later issue). Parent 0 marks a root;
// spans of one request or one replay share Trace.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Trace   int32  `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer hands out span IDs and owns the buffers spans are recorded into.
// A nil *tracer (the untraced pass) yields nil buffers, on which every
// method is a no-op.
type tracer struct {
	t0     time.Time
	nextID atomic.Int32

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's span log; it is not safe for concurrent use.
type spanBuf struct {
	tr    *tracer
	spans []span
}

// buf returns a fresh buffer for one goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// open is a started span: end it exactly once, on the goroutine that owns
// its buffer. It carries its own IDs so another goroutine's buffer can start
// children under it without touching this one's.
type open struct {
	b         *spanBuf
	i         int
	id, trace int32
}

// start opens a span under parent (a zero open for a root).
func (b *spanBuf) start(parent open, name string) open {
	if b == nil {
		return open{}
	}
	id := b.tr.nextID.Add(1)
	s := span{ID: id, Trace: id, Name: name}
	if parent.id != 0 {
		s.Parent, s.Trace = parent.id, parent.trace
	}
	s.StartNS = int64(time.Since(b.tr.t0))
	b.spans = append(b.spans, s)
	return open{b, len(b.spans) - 1, s.ID, s.Trace}
}

func (o open) end() {
	if o.b != nil {
		o.b.spans[o.i].EndNS = int64(time.Since(o.b.tr.t0))
	}
}

// all returns every recorded span ordered by start time (ties by ID), after
// the goroutines writing the buffers have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover (overlapping children count once, and a
// child is clipped to its parent).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerTimes folds a trace into per-name self time, plus the total duration
// of the roots and the roots' own self time (time no layer span covers).
type layerTimes struct {
	selfNS            map[string]int64
	rootNS, harnessNS int64
	spans             int
}

func foldLayers(spans []span) layerTimes {
	lt := layerTimes{selfNS: make(map[string]int64), spans: len(spans)}
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Parent == 0 {
			lt.rootNS += s.EndNS - s.StartNS
			lt.harnessNS += self[s.ID]
		} else {
			lt.selfNS[s.Name] += self[s.ID]
		}
	}
	return lt
}

// ms returns the layer's total self time in milliseconds.
func (lt layerTimes) ms(name string) float64 { return float64(lt.selfNS[name]) / 1e6 }

// coverage is the share of the traced wall time that layer spans account
// for; the remainder is the benchmark's own glue between calls.
func (lt layerTimes) coverage() float64 {
	if lt.rootNS == 0 {
		return 0
	}
	return 1 - float64(lt.harnessNS)/float64(lt.rootNS)
}

// spanCostNS measures what recording one span costs, as the median over
// rounds of the mean of n start/end pairs on a scratch tracer.
func spanCostNS() float64 {
	const rounds, n = 5, 100000
	per := make([]float64, rounds)
	for r := range per {
		tr := newTracer()
		b := tr.buf()
		root := b.start(open{}, "root")
		t0 := time.Now()
		for i := 0; i < n; i++ {
			b.start(root, "probe").end()
		}
		per[r] = float64(time.Since(t0)) / n
		root.end()
	}
	return median(per)
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
