package netsim

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"flattree/internal/graph"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// Packet is one injected packet. Packets of the same Flow hash to the same
// ECMP path choices, like a real 5-tuple.
type Packet struct {
	Time     float64
	Src, Dst int // server node IDs
	Flow     uint64
}

// PacketConfig tunes the packet run.
type PacketConfig struct {
	// QueueLimit is the per-directed-link FIFO capacity in packets
	// (default 64). Arrivals to a full queue are dropped.
	QueueLimit int
	// PropDelay is the per-hop propagation delay added after the unit
	// transmission time (default 0.05).
	PropDelay float64
	// HopLimit drops packets that exceed it (default 32), guarding
	// against routing loops.
	HopLimit int
}

// PacketResult summarizes a packet run.
type PacketResult struct {
	Sent, Delivered, Dropped int
	// MeanLatency and P99Latency are end-to-end (injection to delivery).
	MeanLatency, P99Latency float64
	// MeanHops counts switch-switch traversals of delivered packets.
	MeanHops float64
	// MaxQueue is the deepest any queue got.
	MaxQueue int
	// Utilization is mean busy fraction over directed links, measured
	// until the last delivery.
	Utilization float64
}

type pkt struct {
	Packet
	srcSwitch, dstSwitch int32
	hops                 int
}

type queuedLink struct {
	queue []*pkt
	busy  bool
	// busyTime accumulates transmission time for utilization.
	busyTime float64
}

type event struct {
	time float64
	kind uint8 // 0 = injection, 1 = tx complete, 2 = hop arrival
	link int32 // tx complete: which directed link
	at   int32 // hop arrival: which switch; tx complete: the link's far end
	pkt  *pkt  // injection / hop arrival
	seq  int64
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	//flatlint:ignore floatcmp deterministic ordering: only bit-identical times fall through to the seq tie-break
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ctxBatch is how many events the packet run processes between looks at
// its context.
const ctxBatch = 1024

// Packets runs the packet-level simulation over the injected packets:
// they are routed hop by hop using the forwarding table's ECMP next hops,
// hashed per flow, and each direction of a pooled link is a unit-rate
// store-and-forward server with a finite FIFO queue.
//
// Cancelling ctx ends the run between event batches; it then returns the
// context's error together with the result summarized over the packets
// delivered so far.
func Packets(ctx context.Context, nw *topo.Network, table *routing.Table, packets []Packet, cfg PacketConfig) (PacketResult, error) {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.PropDelay < 0 {
		return PacketResult{}, fmt.Errorf("netsim: negative propagation delay")
	}
	if cfg.PropDelay == 0 { //flatlint:ignore floatcmp zero value means unset; exact by construction
		cfg.PropDelay = 0.05
	}
	if cfg.HopLimit <= 0 {
		cfg.HopLimit = 32
	}

	f := newFabric(nw, nil)
	// Pooled link li carries two directed queues: 2·li toward its
	// higher-numbered switch, 2·li+1 toward the lower.
	links := make([]queuedLink, 2*len(f.capacity))

	var (
		res     PacketResult
		events  eventQueue
		seq     int64
		now     float64
		lastDel float64
	)
	push := func(e *event) {
		e.seq = seq
		seq++
		heap.Push(&events, e)
	}

	var latencies []float64
	totalHops := 0

	// hash picks an ECMP next hop deterministically per (flow, switch).
	hash := func(flow uint64, sw int32, n int) int {
		x := flow ^ (uint64(sw) * 0x9e3779b97f4a7c15)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		return int(x % uint64(n))
	}

	// forward enqueues p at switch sw toward its destination; returns
	// false (drop) on missing route, hop limit, or full queue.
	forward := func(p *pkt, sw int32) bool {
		if sw == p.dstSwitch {
			// Delivered.
			res.Delivered++
			latencies = append(latencies, now-p.Time)
			totalHops += p.hops
			lastDel = now
			return true
		}
		if p.hops >= cfg.HopLimit {
			return false
		}
		hops := table.NextHops(int(sw), int(p.dstSwitch))
		if len(hops) == 0 {
			return false
		}
		next := hops[hash(p.Flow, sw, len(hops))]
		li, ok := f.link(sw, next)
		if !ok {
			return false
		}
		li *= 2
		if sw > next {
			li++
		}
		l := &links[li]
		if len(l.queue) >= cfg.QueueLimit {
			return false
		}
		l.queue = append(l.queue, p)
		if len(l.queue) > res.MaxQueue {
			res.MaxQueue = len(l.queue)
		}
		if !l.busy {
			l.busy = true
			push(&event{time: now + 1, kind: 1, link: li, at: next})
		}
		return true
	}

	sorted := append([]Packet(nil), packets...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	for i := range sorted {
		// Resolve both hosts up front so injection can't fail later.
		src, dst, err := f.endpoints(sorted[i].Src, sorted[i].Dst)
		if err != nil {
			return res, err
		}
		p := &pkt{Packet: sorted[i], srcSwitch: int32(src), dstSwitch: int32(dst)}
		push(&event{time: sorted[i].Time, kind: 0, pkt: p})
	}
	res.Sent = len(sorted)

	var err error
	for n := 0; events.Len() > 0; n++ {
		if n%ctxBatch == 0 {
			if err = ctx.Err(); err != nil {
				err = fmt.Errorf("netsim: %w with %d events pending", err, events.Len())
				break
			}
		}
		e := heap.Pop(&events).(*event)
		now = e.time
		switch e.kind {
		case 0: // injection at source switch
			if !forward(e.pkt, e.pkt.srcSwitch) {
				res.Dropped++
			}
		case 1: // transmission complete on directed link
			l := &links[e.link]
			p := l.queue[0]
			l.queue = l.queue[1:]
			l.busyTime++
			if len(l.queue) > 0 {
				push(&event{time: now + 1, kind: 1, link: e.link, at: e.at})
			} else {
				l.busy = false
			}
			// The packet reaches the peer switch after propagation.
			push(&event{time: now + cfg.PropDelay, kind: 2, at: e.at, pkt: p})
		case 2: // hop arrival at a switch
			e.pkt.hops++
			if !forward(e.pkt, e.at) {
				res.Dropped++
			}
		}
	}

	res.MeanLatency, res.P99Latency = meanP99(latencies)
	if res.Delivered > 0 {
		res.MeanHops = float64(totalHops) / float64(res.Delivered)
	}
	if lastDel > 0 && len(links) > 0 {
		busy := 0.0
		for i := range links {
			busy += links[i].busyTime
		}
		res.Utilization = busy / (lastDel * float64(len(links)))
	}
	return res, err
}

// PoissonPackets injects count packets between uniform random server pairs
// at the given aggregate rate; flowPkts consecutive packets share a flow ID
// (and thus ECMP choices).
func PoissonPackets(servers []int, rate float64, count, flowPkts int, rng *graph.RNG) []Packet {
	if flowPkts <= 0 {
		flowPkts = 1
	}
	out := make([]Packet, 0, count)
	t := 0.0
	var src, dst int
	var flow uint64
	for i := 0; i < count; i++ {
		t += expInterval(rate, rng)
		if i%flowPkts == 0 {
			src = servers[rng.Intn(len(servers))]
			dst = peer(servers, src, rng)
			flow = rng.Uint64()
		}
		out = append(out, Packet{Time: t, Src: src, Dst: dst, Flow: flow})
	}
	return out
}
