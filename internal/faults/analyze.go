package faults

import (
	"flattree/internal/metrics"
	"flattree/internal/topo"
)

// Report quantifies a degraded network.
type Report struct {
	// Servers surviving and total switch-switch links remaining.
	Servers, SwitchLinks int
	// Connected reports whether all surviving servers can still reach
	// each other.
	Connected bool
	// LargestComponentFrac is the fraction of surviving servers in the
	// largest connected component.
	LargestComponentFrac float64
	// APL is the average path length over server pairs in the largest
	// component (0 if it holds fewer than 2 servers).
	APL float64
}

// Analyze computes a degradation report.
func Analyze(nw *topo.Network) (Report, error) {
	r := Report{Servers: len(nw.Servers())}
	for _, l := range nw.Links {
		if nw.IsSwitchLink(l) {
			r.SwitchLinks++
		}
	}
	if r.Servers == 0 {
		return r, nil
	}
	comp := LargestComponent(nw)
	r.LargestComponentFrac = float64(len(comp)) / float64(r.Servers)
	r.Connected = len(comp) == r.Servers
	if len(comp) < 2 {
		return r, nil
	}
	st, err := metrics.ServerPathLengths(nw, comp)
	if err != nil {
		return r, err
	}
	r.APL = st.Global
	return r, nil
}

// LargestComponent returns the servers of the largest connected component,
// ascending; of equally large components, the one holding the lowest server
// ID, so the choice depends on the network alone. A detached server is a
// component of its own. Networks mid-repair are legitimately missing
// servers (dark windows detach them, dead pods remove them), and the
// surviving majority is what recovery tables and the soak's SLO score.
func LargestComponent(nw *topo.Network) []int {
	comp, n := nw.Graph().Components()
	count := make([]int, n)
	for _, sv := range nw.Servers() {
		count[comp[sv]]++
	}
	best, size := int32(-1), 0
	for _, sv := range nw.Servers() {
		if c := count[comp[sv]]; c > size {
			best, size = comp[sv], c
		}
	}
	out := make([]int, 0, size)
	for _, sv := range nw.Servers() {
		if comp[sv] == best {
			out = append(out, sv)
		}
	}
	return out
}
