package main

import "testing"

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[int32]int64
	}{
		{
			"nested: each level loses what the next one covers",
			[]span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 10, EndNS: 90},
				{ID: 3, Parent: 2, StartNS: 20, EndNS: 50},
			},
			map[int32]int64{1: 20, 2: 50, 3: 30},
		},
		{
			"siblings: disjoint children add up",
			[]span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 0, EndNS: 30},
				{ID: 3, Parent: 1, StartNS: 40, EndNS: 70},
			},
			map[int32]int64{1: 40, 2: 30, 3: 30},
		},
		{
			"overlapping children count their union once",
			[]span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 10, EndNS: 60},
				{ID: 3, Parent: 1, StartNS: 40, EndNS: 80},
				{ID: 4, Parent: 1, StartNS: 50, EndNS: 55}, // inside both
			},
			map[int32]int64{1: 30, 2: 50, 3: 40, 4: 5},
		},
		{
			"a child is clipped to its parent",
			[]span{
				{ID: 1, StartNS: 10, EndNS: 50},
				{ID: 2, Parent: 1, StartNS: 0, EndNS: 20},
				{ID: 3, Parent: 1, StartNS: 40, EndNS: 90},
			},
			map[int32]int64{1: 20, 2: 20, 3: 50},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for id, want := range c.want {
			if got[id] != want {
				t.Errorf("%s: span %d self time %d, want %d", c.name, id, got[id], want)
			}
		}
	}
}

func TestFoldLayersAndTracer(t *testing.T) {
	tr := newTracer()
	main, other := tr.buf(), tr.buf()
	root := main.start(open{}, "replay")
	a := main.start(root, "mcf.solve")
	a.end()
	b := other.start(root, "mcf.solve") // another goroutine's buffer, same parent
	b.end()
	root.end()
	spans := tr.all()
	if len(spans) != 3 || spans[0].Name != "replay" {
		t.Fatalf("spans %+v: want the root first and two children", spans)
	}
	for _, s := range spans[1:] {
		if s.Parent != spans[0].ID || s.Trace != spans[0].Trace {
			t.Errorf("child %+v does not hang under root %+v", s, spans[0])
		}
	}

	lt := foldLayers([]span{
		{ID: 1, Name: "replay", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "mcf.solve", StartNS: 0, EndNS: 40},
		{ID: 3, Parent: 1, Name: "mcf.solve", StartNS: 50, EndNS: 90},
		{ID: 4, Parent: 3, Name: "graph.sssp", StartNS: 60, EndNS: 70},
	})
	if lt.selfNS["mcf.solve"] != 70 || lt.selfNS["graph.sssp"] != 10 || lt.rootNS != 100 || lt.harnessNS != 20 {
		t.Errorf("folded %+v", lt)
	}
	if c := lt.coverage(); !near(c, 0.8) {
		t.Errorf("coverage %g, want 0.8", c)
	}

	// The untraced pass hands out nil buffers; nothing may be recorded.
	var none *tracer
	nb := none.buf()
	nb.start(nb.start(open{}, "x"), "y").end()
}
