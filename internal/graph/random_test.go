package graph

import (
	"fmt"
	"slices"
	"testing"
)

// randomDegreeReference is RandomDegree as it stood before its active list
// was compacted lazily: it rescans all n nodes after every added edge. Kept
// as the differential oracle — same edges, same RNG draws — for
// TestRandomDegreeMatchesReference; the only edits are the st counters that
// tell the test which repair paths a sequence reached.
func randomDegreeReference(degrees []int, rng *RNG, st *refStats) (*Graph, error) {
	n := len(degrees)
	g := New(n)
	free := make([]int, n)
	total := 0
	for v, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("graph: negative degree %d at node %d", d, v)
		}
		free[v] = d
		total += d
	}
	// Active list of nodes with free ports.
	active := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if free[v] > 0 {
			active = append(active, v)
		}
	}
	removeInactive := func() {
		w := 0
		for _, v := range active {
			if free[v] > 0 {
				active[w] = v
				w++
			}
		}
		active = active[:w]
	}

	stuck := 0
	for len(active) >= 2 || (len(active) == 1 && free[active[0]] >= 2) {
		// Try random pairs a bounded number of times before declaring the
		// phase stuck.
		paired := false
		for try := 0; try < 32 && len(active) >= 2; try++ {
			i := rng.Intn(len(active))
			j := rng.Intn(len(active))
			if i == j {
				continue
			}
			a, b := active[i], active[j]
			if free[a] == 0 || free[b] == 0 {
				removeInactive()
				continue
			}
			if g.HasEdge(a, b) {
				continue
			}
			g.AddEdge(a, b)
			free[a]--
			free[b]--
			paired = true
			break
		}
		if paired {
			stuck = 0
			removeInactive()
			continue
		}
		// Stuck: every remaining free-port pair is already adjacent (or a
		// single node remains). Do a Jellyfish edge swap: pick x with
		// free[x] >= 2, a random existing edge (u,w) with u,w not adjacent
		// to x, replace it with (x,u) and (x,w).
		removeInactive()
		if len(active) == 0 {
			break
		}
		x := -1
		for _, v := range active {
			if free[v] >= 2 {
				x = v
				break
			}
		}
		if g.M() == 0 {
			break
		}
		swapped := false
		if x >= 0 {
			// Swap type 1: x has two free ports; splice it into a random
			// existing edge (u,w) not touching x.
			for try := 0; try < 256; try++ {
				e := g.Edge(rng.Intn(g.M()))
				u, w := int(e.A), int(e.B)
				if u == x || w == x || g.HasEdge(x, u) || g.HasEdge(x, w) {
					continue
				}
				g.removeEdgeBetween(u, w)
				g.AddEdge(x, u)
				g.AddEdge(x, w)
				free[x] -= 2
				st.swap1++
				swapped = true
				break
			}
		} else if len(active) >= 2 {
			// Swap type 2: the remaining free ports sit one-per-node on
			// mutually adjacent nodes; break an edge (u,w) disjoint from
			// two of them (x, y) and reconnect x-u, y-w.
			y := -1
			x = active[0]
			for _, v := range active[1:] {
				if v != x {
					y = v
					break
				}
			}
			if y >= 0 {
				for try := 0; try < 256 && !swapped; try++ {
					e := g.Edge(rng.Intn(g.M()))
					for _, or := range [2][2]int{{int(e.A), int(e.B)}, {int(e.B), int(e.A)}} {
						u, w := or[0], or[1]
						if u == x || u == y || w == x || w == y ||
							g.HasEdge(x, u) || g.HasEdge(y, w) {
							continue
						}
						g.removeEdgeBetween(u, w)
						g.AddEdge(x, u)
						g.AddEdge(y, w)
						free[x]--
						free[y]--
						st.swap2++
						swapped = true
						break
					}
				}
			}
		}
		if !swapped {
			stuck++
			if stuck > 8 {
				st.gaveUp++
				break // give up; leftover free ports stay unused
			}
			continue
		}
		stuck = 0
		removeInactive()
	}
	g.SortAdjacency()
	return g, nil
}

// refStats counts the repair paths randomDegreeReference took.
type refStats struct{ swap1, swap2, gaveUp int }

// TestRandomDegreeMatchesReference: lazy compaction of the active list must
// be invisible — for every degree sequence the edge list, the sorted
// adjacency and the generator's next draw equal the per-edge-compaction
// loop's. The sequences are chosen to reach both swap types and the give-up
// path, which the data-center degree sequences almost never do.
func TestRandomDegreeMatchesReference(t *testing.T) {
	var seqs [][]int
	regular := func(n, d int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = d
		}
		return s
	}
	gen := NewRNG(20260929)
	// Dense regular graphs (d close to n-1) get stuck and swap; odd totals
	// and one node hoarding ports reach swap type 1 with leftovers; hubs
	// wanting more than n-1 neighbours force the give-up path.
	for n := 4; n <= 14; n++ {
		for _, d := range []int{n - 1, n - 2, n / 2} {
			seqs = append(seqs, regular(n, d))
		}
		hub := regular(n, 2)
		hub[0] = 2 * n
		seqs = append(seqs, hub)
		two := regular(n, n-2)
		two[n-1], two[n-2] = n+3, n+3
		seqs = append(seqs, two)
	}
	for len(seqs) < 260 {
		n := 2 + gen.Intn(40)
		s := make([]int, n)
		for i := range s {
			s[i] = gen.Intn(n + 2)
		}
		seqs = append(seqs, s)
	}
	// The shapes the topology builders ask for.
	seqs = append(seqs, regular(80, 7), regular(16, 8), regular(320, 13))

	var st refStats
	for i, deg := range seqs {
		for _, seed := range []uint64{1, uint64(i) + 2} {
			name := fmt.Sprintf("seq %d %v seed %d", i, deg, seed)
			wantRNG, gotRNG := NewRNG(seed), NewRNG(seed)
			want, err := randomDegreeReference(deg, wantRNG, &st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RandomDegree(deg, gotRNG)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(want.Edges(), got.Edges()) {
				t.Fatalf("%s: edge lists differ\nwant %v\ngot  %v", name, want.Edges(), got.Edges())
			}
			for v := 0; v < want.N(); v++ {
				if !slices.Equal(want.Neighbors(v), got.Neighbors(v)) {
					t.Fatalf("%s: adjacency of %d differs", name, v)
				}
			}
			if w, g := wantRNG.Uint64(), gotRNG.Uint64(); w != g {
				t.Fatalf("%s: generators diverged (next draw %d vs %d)", name, w, g)
			}
		}
	}
	if st.swap1 == 0 || st.swap2 == 0 || st.gaveUp == 0 {
		t.Errorf("sequences did not reach every repair path: %+v", st)
	}
	t.Logf("%d sequences x 2 seeds: %+v", len(seqs), st)
}
