// Package converter models the small port-count converter switches at the
// heart of flat-tree (§2.1, Figure 1 of the paper). A converter taps one
// edge-server cable and one aggregation-core cable of a Clos pod (6-port
// converters additionally own a pair of side cables to a peer converter in
// an adjacent pod) and realizes one of four configurations, each an internal
// perfect matching over its ports:
//
//	Default: {agg-core, edge-server}           — the original Clos wiring
//	Local:   {agg-server, core-edge}           — server moves to the agg switch
//	Side:    {core-server, edge-side1, agg-side2} — server moves to the core
//	Cross:   {core-server, edge-side2, agg-side1} — ditto, peers crossed
//
// Converters operate in the physical layer: an effective switch-level link
// is obtained by tracing cable → matching → cable chains until both ends are
// devices, and contributes no hops. Splice performs that tracing for a whole
// set of converters.
package converter

import "fmt"

// Config selects a converter's internal port matching.
type Config uint8

const (
	// Default reproduces the original Clos connections.
	Default Config = iota
	// Local relocates the server to the aggregation switch and connects
	// the core and edge switches directly.
	Local
	// Side relocates the server to the core switch and hands the edge and
	// aggregation ports to the peer converter, straight (E-E', A-A' when
	// the peer is also in Side).
	Side
	// Cross is Side with the hand-off swapped (E-A', A-E' when the peer is
	// also in Side or Cross).
	Cross
)

// String returns the configuration name.
func (c Config) String() string {
	switch c {
	case Default:
		return "default"
	case Local:
		return "local"
	case Side:
		return "side"
	case Cross:
		return "cross"
	}
	return fmt.Sprintf("config(%d)", uint8(c))
}

// Port identifies one of a converter's ports by role.
type Port uint8

const (
	// PortServer cables to the tapped server.
	PortServer Port = iota
	// PortEdge cables to the pod's edge switch of the converter's pair.
	PortEdge
	// PortAgg cables to the pod's aggregation switch of the pair.
	PortAgg
	// PortCore cables to the core switch whose uplink the converter taps.
	PortCore
	// PortSide1 and PortSide2 cable straight to the same-numbered ports of
	// the paired converter in the adjacent pod (6-port converters only).
	PortSide1
	PortSide2

	// NumPorts is the size of per-port arrays.
	NumPorts = 6
)

// String returns the port role name.
func (p Port) String() string {
	switch p {
	case PortServer:
		return "S"
	case PortEdge:
		return "E"
	case PortAgg:
		return "A"
	case PortCore:
		return "C"
	case PortSide1:
		return "side1"
	case PortSide2:
		return "side2"
	}
	return fmt.Sprintf("port(%d)", uint8(p))
}

// Matching returns the internal port pairing for a converter with the given
// port count (4 or 6) under cfg. Ports not mentioned are left open.
func Matching(ports int, cfg Config) ([][2]Port, error) {
	switch {
	case ports == 4 && cfg == Default, ports == 6 && cfg == Default:
		return [][2]Port{{PortAgg, PortCore}, {PortEdge, PortServer}}, nil
	case ports == 4 && cfg == Local, ports == 6 && cfg == Local:
		return [][2]Port{{PortAgg, PortServer}, {PortCore, PortEdge}}, nil
	case ports == 6 && cfg == Side:
		return [][2]Port{{PortCore, PortServer}, {PortEdge, PortSide1}, {PortAgg, PortSide2}}, nil
	case ports == 6 && cfg == Cross:
		return [][2]Port{{PortCore, PortServer}, {PortEdge, PortSide2}, {PortAgg, PortSide1}}, nil
	}
	return nil, fmt.Errorf("converter: invalid configuration %s for %d-port converter", cfg, ports)
}

// matchTable is a matching as a port -> matched-port table, -1 where open.
type matchTable [NumPorts]int8

// matchTables holds Matching's result for every legal (port count, config)
// as a table, indexed [ports == 6][cfg]; illegal combinations stay nil.
// Splice looks matchings up here instead of rebuilding them per converter.
var matchTables = func() (ts [2][Cross + 1]*matchTable) {
	for pi, ports := range [2]int{4, 6} {
		for cfg := Default; cfg <= Cross; cfg++ {
			pairs, err := Matching(ports, cfg)
			if err != nil {
				continue
			}
			t := matchTable{-1, -1, -1, -1, -1, -1}
			for _, pr := range pairs {
				t[pr[0]] = int8(pr[1])
				t[pr[1]] = int8(pr[0])
			}
			ts[pi][cfg] = &t
		}
	}
	return ts
}()

// tableFor is Matching as a table lookup; its error is Matching's.
func tableFor(ports int, cfg Config) (*matchTable, error) {
	if (ports == 4 || ports == 6) && cfg <= Cross {
		if t := matchTables[(ports-4)/2][cfg]; t != nil {
			return t, nil
		}
	}
	_, err := Matching(ports, cfg)
	return nil, err
}

// ValidConfigs lists the configurations a converter with the given port
// count supports. 4-port converters deliberately exclude Side/Cross — and
// also any server-to-core relocation, per §2.1 of the paper: with only four
// ports, pairing server with core would force a redundant edge-agg link.
func ValidConfigs(ports int) []Config {
	if ports == 4 {
		return []Config{Default, Local}
	}
	return []Config{Default, Local, Side, Cross}
}

// Endpoint is what a converter port's external cable attaches to: a device
// (network node), a peer converter port, or nothing.
type Endpoint struct {
	Node int32 // device node ID, or -1
	Conv int32 // peer converter index, or -1
	Port Port  // peer port (valid when Conv >= 0)
}

// NoEndpoint is an unattached cable.
var NoEndpoint = Endpoint{Node: -1, Conv: -1}

// IsNode reports whether the endpoint is a device.
func (e Endpoint) IsNode() bool { return e.Node >= 0 }

// IsConv reports whether the endpoint is a peer converter port.
func (e Endpoint) IsConv() bool { return e.Conv >= 0 }

// Converter is one converter switch instance with its external cabling and
// current configuration.
type Converter struct {
	// ID is the converter's index in the owning slice; Splice requires
	// ID == position.
	ID int
	// Ports is 4 or 6.
	Ports int
	// Attach gives the external endpoint of each port role.
	Attach [NumPorts]Endpoint
	// Config is the active configuration.
	Config Config
}

// Validate checks that the configuration is legal for the port count, that
// device-facing ports are cabled, and that side ports are only used on
// 6-port converters.
func (c *Converter) Validate() error {
	_, err := c.validate(c.Config)
	return err
}

// validate is Validate under cfg in place of c.Config; it returns cfg's
// matching.
func (c *Converter) validate(cfg Config) (*matchTable, error) {
	if c.Ports != 4 && c.Ports != 6 {
		return nil, fmt.Errorf("converter %d: bad port count %d", c.ID, c.Ports)
	}
	t, err := tableFor(c.Ports, cfg)
	if err != nil {
		return nil, fmt.Errorf("converter %d: %w", c.ID, err)
	}
	for _, p := range []Port{PortServer, PortEdge, PortAgg, PortCore} {
		if !c.Attach[p].IsNode() {
			return nil, fmt.Errorf("converter %d: %s port not cabled to a device", c.ID, p)
		}
	}
	if c.Ports == 4 {
		for _, p := range []Port{PortSide1, PortSide2} {
			if c.Attach[p] != NoEndpoint {
				return nil, fmt.Errorf("converter %d: 4-port converter has a %s cable", c.ID, p)
			}
		}
	}
	return t, nil
}

// EffectiveLink is a device-to-device link produced by splicing.
type EffectiveLink struct {
	A, B int32
	// ViaSide reports whether the splice traversed at least one side cable
	// (i.e. the link crosses pods through paired 6-port converters).
	ViaSide bool
}

// Splice traces every cable-matching chain across the converter set and
// returns the resulting device-to-device links. Each link is reported once.
// Chains that dead-end on an uncabled port (e.g. a Side configuration whose
// peer is missing) produce no link. An error is returned for malformed
// inputs or a cyclic chain, which cannot arise from valid configurations.
//
// A non-nil configs gives converter i's configuration as configs[i] in place
// of convs[i].Config. Splice only reads convs, so one cabled plant can be
// spliced under many assignments, concurrently, without being copied.
func Splice(convs []Converter, configs []Config) ([]EffectiveLink, error) {
	if configs != nil && len(configs) != len(convs) {
		return nil, fmt.Errorf("converter: %d configurations for %d converters", len(configs), len(convs))
	}
	tables := make([]matchTable, len(convs))
	maxLinks := 0
	for i := range convs {
		c := &convs[i]
		if c.ID != i {
			return nil, fmt.Errorf("converter: ID %d at position %d", c.ID, i)
		}
		cfg := c.Config
		if configs != nil {
			cfg = configs[i]
		}
		t, err := c.validate(cfg)
		if err != nil {
			return nil, err
		}
		tables[i] = *t
		maxLinks += c.Ports / 2
	}

	done := make([][NumPorts]bool, len(convs))
	out := make([]EffectiveLink, 0, maxLinks)
	for i := range convs {
		for p := Port(0); p < NumPorts; p++ {
			if done[i][p] || !convs[i].Attach[p].IsNode() {
				continue
			}
			// Trace from device-facing port (i, p).
			start := convs[i].Attach[p].Node
			ci, cp := i, p
			viaSide := false
			steps := 0
			for {
				if steps++; steps > 4*len(convs)+8 {
					return nil, fmt.Errorf("converter: cyclic splice chain starting at converter %d port %s", i, p)
				}
				done[ci][cp] = true
				mp := tables[ci][cp]
				if mp < 0 {
					// Open matching slot: the device's cable is dark.
					break
				}
				cp = Port(mp)
				done[ci][cp] = true
				ep := convs[ci].Attach[cp]
				if ep.IsNode() {
					out = append(out, EffectiveLink{A: start, B: ep.Node, ViaSide: viaSide})
					break
				}
				if !ep.IsConv() {
					// Matched onto an uncabled port: wasted link.
					break
				}
				if cp == PortSide1 || cp == PortSide2 {
					viaSide = true
				}
				ci, cp = int(ep.Conv), ep.Port
			}
		}
	}
	return out, nil
}
