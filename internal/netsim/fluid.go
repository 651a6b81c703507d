package netsim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"flattree/internal/graph"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// Arrival is one flow entering the system.
type Arrival struct {
	Time     float64
	Src, Dst int // server node IDs
	Size     float64
}

// FlowRecord is a completed flow.
type FlowRecord struct {
	Arrival
	Finish float64
}

// FCT returns the flow completion time.
func (f FlowRecord) FCT() float64 { return f.Finish - f.Time }

// FluidResult summarizes a fluid run.
type FluidResult struct {
	Completed []FlowRecord
	// MeanFCT, P99FCT summarize completion times.
	MeanFCT, P99FCT float64
	// Events is the number of simulation events processed.
	Events int
	// Unfinished counts flows still active when the run ended.
	Unfinished int
}

// maxConcurrent bounds the simultaneously active flows of a fluid run, a
// safety valve against overload workloads that would never drain. Hitting
// it is a finding about the offered load rather than a simulator limit.
const maxConcurrent = 4096

type activeFlow struct {
	remaining float64
	links     []int32
	rate      float64
	arr       Arrival
}

// Fluid runs the event-driven fluid simulation of the given arrivals (they
// will be processed in time order) on the network under the routing scheme:
// the run advances from event to event (arrival or completion) and re-solves
// the max-min fair rates of the active flows at each one. Each flow is
// routed on the least-loaded (by active flow count) of its candidate paths
// at arrival — the practical KSP load-balancing §2.6 implies.
//
// A run that ends early — ctx cancelled (checked between events), more than
// maxConcurrent flows active, the event budget exhausted, no usable path —
// returns the error together with the partial result, summarized over the
// flows that did complete, so a SIGINT mid-sweep still yields usable data.
func Fluid(ctx context.Context, nw *topo.Network, scheme routing.Scheme, arrivals []Arrival) (FluidResult, error) {
	f := newFabric(nw, scheme)
	sorted := append([]Arrival(nil), arrivals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	// Resolve every arrival up front, so bad input fails before any event.
	ends := make([]pair, len(sorted))
	for i, a := range sorted {
		if !(a.Size > 0) {
			return FluidResult{}, fmt.Errorf("netsim: non-positive flow size %g", a.Size)
		}
		s, d, err := f.endpoints(a.Src, a.Dst)
		if err != nil {
			return FluidResult{}, err
		}
		ends[i] = pair{int32(s), int32(d)}
	}

	var (
		active []*activeFlow
		res    FluidResult
		now    float64
		// load counts the active flows per link as of the last rate solve.
		load  = make([]int, len(f.capacity))
		flows [][]int32
		rate  []float64
	)

	// recompute assigns max-min fair rates to all active flows.
	recompute := func() {
		for i := range load {
			load[i] = 0
		}
		flows, rate = flows[:0], rate[:0]
		for _, a := range active {
			for _, li := range a.links {
				load[li]++
			}
			flows = append(flows, a.links)
			rate = append(rate, 0)
		}
		fill(f.capacity, flows, rate)
		for i, a := range active {
			a.rate = rate[i]
		}
	}

	// advance progresses active flows to time t and completes any that
	// finish exactly at t.
	advance := func(t float64) {
		dt := t - now
		for _, a := range active {
			if math.IsInf(a.rate, 1) {
				a.remaining = 0
			} else if dt > 0 {
				a.remaining -= a.rate * dt
			}
		}
		now = t
		w := 0
		for _, a := range active {
			if a.remaining <= 1e-9 {
				res.Completed = append(res.Completed, FlowRecord{Arrival: a.arr, Finish: now})
				continue
			}
			active[w] = a
			w++
		}
		active = active[:w]
	}

	nextCompletion := func() float64 {
		t := math.Inf(1)
		for _, a := range active {
			if math.IsInf(a.rate, 1) {
				return now
			}
			if a.rate > 0 {
				if c := now + a.remaining/a.rate; c < t {
					t = c
				}
			}
		}
		return t
	}

	run := func() error {
		ai := 0
		for ai < len(sorted) || len(active) > 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("netsim: %w with %d flows active", err, len(active))
			}
			res.Events++
			if res.Events > 200*len(sorted)+1000 {
				return fmt.Errorf("netsim: event budget exhausted with %d flows active (offered load exceeds capacity?)", len(active))
			}
			tc := nextCompletion()
			if ai < len(sorted) && sorted[ai].Time <= tc {
				arr, sd := sorted[ai], ends[ai]
				ai++
				advance(math.Max(arr.Time, now))
				if sd.a == sd.b {
					// Same-switch flow: completes instantly at fluid scale.
					res.Completed = append(res.Completed, FlowRecord{Arrival: arr, Finish: now})
					continue
				}
				paths, err := f.paths(int(sd.a), int(sd.b))
				if err != nil {
					return err
				}
				// Least-loaded candidate by current active flow count.
				bestPath, bestLoad := 0, math.Inf(1)
				for pi, links := range paths {
					sum := 0.0
					for _, li := range links {
						sum += float64(load[li])
					}
					sum /= float64(len(links))
					if sum < bestLoad {
						bestLoad, bestPath = sum, pi
					}
				}
				if len(active) >= maxConcurrent {
					return fmt.Errorf("netsim: %d concurrent flows exceeds limit %d", len(active)+1, maxConcurrent)
				}
				active = append(active, &activeFlow{remaining: arr.Size, links: paths[bestPath], arr: arr})
				recompute()
				continue
			}
			if math.IsInf(tc, 1) {
				return nil
			}
			advance(tc)
			recompute()
		}
		return nil
	}
	err := run()

	res.Unfinished = len(active)
	fcts := make([]float64, len(res.Completed))
	for i, c := range res.Completed {
		fcts[i] = c.FCT()
	}
	res.MeanFCT, res.P99FCT = meanP99(fcts)
	return res, err
}

// PoissonHotspot generates count flows from a hot-spot server to uniformly
// random peers in the given server set, with exponential inter-arrivals at
// the given rate and fixed size.
func PoissonHotspot(servers []int, hotspot int, rate, size float64, count int, rng *graph.RNG) []Arrival {
	arr := make([]Arrival, 0, count)
	t := 0.0
	for i := 0; i < count; i++ {
		t += expInterval(rate, rng)
		arr = append(arr, Arrival{Time: t, Src: hotspot, Dst: peer(servers, hotspot, rng), Size: size})
	}
	return arr
}

// PoissonPairs generates count flows between uniformly random server pairs.
func PoissonPairs(servers []int, rate, size float64, count int, rng *graph.RNG) []Arrival {
	arr := make([]Arrival, 0, count)
	t := 0.0
	for i := 0; i < count; i++ {
		t += expInterval(rate, rng)
		s := servers[rng.Intn(len(servers))]
		arr = append(arr, Arrival{Time: t, Src: s, Dst: peer(servers, s, rng), Size: size})
	}
	return arr
}
