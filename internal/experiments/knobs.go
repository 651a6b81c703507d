package experiments

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"flattree/internal/chaos"
)

// Request is one fully parameterized experiment run: the sweep and solver
// Config, the cell to compute, and the wall-clock Timeout the caller
// allows it. Every field a user can set is reached through exactly one
// Knob, whichever surface (flatsim flag or /v1/cell query parameter) the
// value arrives on.
type Request struct {
	Config  Config
	Spec    CellSpec
	Timeout time.Duration
}

// surface says where a knob is settable. The flag spelling, the query
// spelling and the content-address field of a knob are all its Name.
type surface int

const (
	// flagAndQuery knobs are flatsim flags and /v1/cell parameters.
	flagAndQuery surface = iota
	// flagOnly knobs exist on the flatsim command line only.
	flagOnly
	// queryOnly knobs exist on /v1/cell only; the CLI derives them (k is
	// -kmax there) or runs the default.
	queryOnly
)

// Knob is the single declaration of one experiment parameter: its name,
// help text, default, domain, whether it is part of a result's identity,
// and how it lands in a Request. cmd/flatsim registers its flags, and
// internal/serve parses its query and builds its content address, by
// ranging over Knobs().
type Knob struct {
	Name  string
	Usage string
	// Identity knobs change the bytes a cell prints and are hashed into the
	// content address; execution knobs (parallelism, budgets, timeouts)
	// only change how fast the bytes arrive and never are.
	Identity bool

	surface      surface
	set          func(r *Request, s string) error
	appendValue  func(b []byte, r *Request) []byte
	applyDefault func(r *Request, onlyIfUnset bool)
}

// Flag reports whether the knob is a flatsim flag; Query, whether it is a
// /v1/cell parameter.
func (k Knob) Flag() bool  { return k.surface != queryOnly }
func (k Knob) Query() bool { return k.surface != flagOnly }

// Set parses s, checks it against the knob's domain and stores it in r.
// The error names the knob, the offending text and the domain, and is the
// same on every surface.
func (k Knob) Set(r *Request, s string) error { return k.set(r, s) }

// Get renders the knob's current value in r canonically: Set(Get()) is the
// identity, and equal values render equally however they were spelled.
// Append is Get appending to b, for the per-request content address.
func (k Knob) Get(r *Request) string              { return string(k.appendValue(nil, r)) }
func (k Knob) Append(b []byte, r *Request) []byte { return k.appendValue(b, r) }

// domain is a knob's admissible set with the phrase error messages use.
type domain[T any] struct {
	ok   func(T) bool
	text string
}

var (
	anyInt    = domain[int]{func(int) bool { return true }, ""}
	posInt    = domain[int]{func(v int) bool { return v > 0 }, "> 0"}
	nonNegInt = domain[int]{func(v int) bool { return v >= 0 }, ">= 0"}
	evenK     = domain[int]{func(v int) bool { return v >= 4 && v%2 == 0 }, ">= 4 and even"}
	posFloat  = domain[float64]{func(v float64) bool { return v > 0 }, "> 0"}
	frac01    = domain[float64]{func(v float64) bool { return v >= 0 && v < 1 }, "in [0,1)"}
	fracOpen  = domain[float64]{func(v float64) bool { return v > 0 && v < 1 }, "in (0,1)"}
)

// knobOf builds a Knob over one Request field. kind is the noun phrase of
// the parse error ("an integer"); the domain text follows it.
func knobOf[T comparable](name, usage string, def T, kind string, dom domain[T],
	parse func(string) (T, error), format func([]byte, T) []byte, field func(*Request) *T) Knob {
	var zero T
	return Knob{
		Name: name, Usage: usage,
		set: func(r *Request, s string) error {
			v, err := parse(s)
			if err != nil || !dom.ok(v) {
				return fmt.Errorf("%s=%q must be %s", name, s, strings.TrimSpace(kind+" "+dom.text))
			}
			*field(r) = v
			return nil
		},
		appendValue: func(b []byte, r *Request) []byte { return format(b, *field(r)) },
		// A zero field whose zero is outside the domain cannot have been
		// set, so it is unset; a zero inside the domain (seed 0, kmin 0) is
		// a value and stays.
		applyDefault: func(r *Request, onlyIfUnset bool) {
			if f := field(r); !onlyIfUnset || (*f == zero && !dom.ok(zero)) {
				*f = def
			}
		},
	}
}

func intKnob(name, usage string, def int, dom domain[int], field func(*Request) *int) Knob {
	format := func(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }
	return knobOf(name, usage, def, "an integer", dom, strconv.Atoi, format, field)
}

func floatKnob(name, usage string, def float64, dom domain[float64], field func(*Request) *float64) Knob {
	parse := func(s string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if math.Signbit(v) && v >= 0 {
			v = 0 // -0 and 0 are one value; fold them so they render alike
		}
		return v, err
	}
	format := func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
	return knobOf(name, usage, def, "a number", dom, parse, format, field)
}

func durationKnob(name, usage string, field func(*Request) *time.Duration) Knob {
	dom := domain[time.Duration]{func(d time.Duration) bool { return d >= 0 }, ""}
	format := func(b []byte, d time.Duration) []byte { return append(b, d.String()...) }
	return knobOf(name, usage, 0, "a non-negative Go duration", dom, time.ParseDuration, format, field)
}

func (k Knob) identity() Knob    { k.Identity = true; return k }
func (k Knob) on(s surface) Knob { k.surface = s; return k }

// kKnob has no fixed default: unset, applyDefaults gives it kmax, and Resolve
// re-checks the inherited value for the experiments that read it.
var kKnob = intKnob("k", "network size of the single-k scenario experiments (default kmax)", 0, evenK,
	func(r *Request) *int { return &r.Spec.K }).identity().on(queryOnly)

// knobs is the knob table, in content-address order: identity knobs first
// (sweep, then scenario), execution knobs last.
var knobs = []Knob{
	intKnob("kmin", "smallest fat-tree parameter k (even)", 4, anyInt,
		func(r *Request) *int { return &r.Config.KMin }).identity(),
	intKnob("kmax", "largest fat-tree parameter k; the network size of the single-k scenario experiments", 16, anyInt,
		func(r *Request) *int { return &r.Config.KMax }).identity(),
	intKnob("kstep", "k sweep step", 2, posInt,
		func(r *Request) *int { return &r.Config.KStep }).identity(),
	knobOf("seed", "seed for random constructions and placements", 1, "a uint64", domain[uint64]{func(uint64) bool { return true }, ""},
		func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) },
		func(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) },
		func(r *Request) *uint64 { return &r.Config.Seed }).identity(),
	floatKnob("eps", "max-concurrent-flow approximation epsilon", 0.1,
		domain[float64]{func(v float64) bool { return v > 0 && v < 0.5 }, "in (0,0.5)"},
		func(r *Request) *float64 { return &r.Config.Epsilon }).identity(),
	intKnob("hybridk", "network size for the hybrid experiment (paper: 30)", 10, posInt,
		func(r *Request) *int { return &r.Config.HybridK }).identity(),
	intKnob("trials", "average randomized experiments over this many seeds", 1, posInt,
		func(r *Request) *int { return &r.Config.Trials }).identity(),

	kKnob,
	intKnob("profilek", "network size for the profiling experiment", 16, evenK,
		func(r *Request) *int { return &r.Spec.ProfileK }).identity(),
	floatKnob("failfrac", "selfheal: fraction of pod agents killed mid-run", 0.25, fracOpen,
		func(r *Request) *float64 { return &r.Spec.FailFrac }).identity(),
	intKnob("batch", "selfheal/soak: pods re-aimed per dark window", 1, posInt,
		func(r *Request) *int { return &r.Spec.Batch }).identity(),
	floatKnob("load", "latency: packets per server per unit time", 0.1, posFloat,
		func(r *Request) *float64 { return &r.Spec.Load }).identity().on(queryOnly),
	floatKnob("switchfrac", "faultsrecovery: fraction of switches failed per trial", 0, frac01,
		func(r *Request) *float64 { return &r.Spec.Scenario.SwitchFraction }).identity(),
	intKnob("burstpods", "faultsrecovery: pods hit by a correlated link burst", 0, nonNegInt,
		func(r *Request) *int { return &r.Spec.Scenario.BurstPods }).identity(),
	floatKnob("burstfrac", "faultsrecovery: fraction of each burst pod's links failed", 0, frac01,
		func(r *Request) *float64 { return &r.Spec.Scenario.BurstLinkFraction }).identity(),
	floatKnob("convfrac", "faultsrecovery: fraction of converter blocks that die (pinning their links)", 0, frac01,
		func(r *Request) *float64 { return &r.Spec.Scenario.ConverterFraction }).identity(),
	floatKnob("rate", "soak: episode arrival rate per unit virtual time", 1, posFloat,
		func(r *Request) *float64 { return &r.Spec.Soak.Rate }).identity(),
	floatKnob("horizon", "soak: virtual duration of the soak", 20, posFloat,
		func(r *Request) *float64 { return &r.Spec.Soak.Horizon }).identity(),
	intKnob("episodes", "soak: cap on spawned episodes (0 = unlimited)", 0, nonNegInt,
		func(r *Request) *int { return &r.Spec.Soak.MaxEpisodes }).identity(),
	floatKnob("windowcost", "soak: virtual time one dark repair window occupies", 0.25, posFloat,
		func(r *Request) *float64 { return &r.Spec.Soak.WindowCost }).identity(),
	floatKnob("slo", "soak: served-capacity fraction the availability verdict is judged against", 0.9,
		domain[float64]{func(v float64) bool { return v > 0 && v <= 1 }, "in (0,1]"},
		func(r *Request) *float64 { return &r.Spec.Soak.SLOThreshold }).identity(),
	knobOf("mix", "soak: episode mix weights link,switch,conv,pod (empty = 5,3,1,1)", chaos.Mix{},
		"four comma-separated weights link,switch,conv,pod, each >= 0 and not all 0",
		domain[chaos.Mix]{func(chaos.Mix) bool { return true }, ""}, parseMix, formatMix,
		func(r *Request) *chaos.Mix { return &r.Spec.Soak.Mix }).identity().on(flagOnly),

	intKnob("parallel", "worker goroutines per experiment sweep (0 = all cores); output is identical for every setting", 0, anyInt,
		func(r *Request) *int { return &r.Config.Parallelism }).on(flagOnly),
	durationKnob("solvebudget", "wall-clock budget per MCF solve; budget-limited cells carry a trailing ~ (0 = unbounded)",
		func(r *Request) *time.Duration { return &r.Config.SolveBudget }).on(flagOnly),
	durationKnob("timeout", "abort the run after this duration (0 = no limit)",
		func(r *Request) *time.Duration { return &r.Timeout }),
}

// Knobs returns the knob table in declaration order, which is also the
// field order of the content address.
func Knobs() []Knob { return knobs }

// NewRequest returns the request every knob default describes.
func NewRequest() Request {
	var r Request
	for _, k := range knobs {
		k.applyDefault(&r, false)
	}
	return r
}

// DefaultConfig mirrors the paper's sweep at a scale suitable for a laptop
// run; -kmax raises it to the paper's full k=32.
func DefaultConfig() Config { return NewRequest().Config }

// applyDefaults replaces every unset field — zero, where zero is outside the
// knob's domain — with the knob's default, an unset K with KMax, and an
// unset soak batch with Batch.
func (r *Request) applyDefaults() {
	for _, k := range knobs {
		k.applyDefault(r, true)
	}
	if r.Spec.K == 0 {
		r.Spec.K = r.Config.KMax
	}
	if r.Spec.Soak.BatchSize == 0 {
		r.Spec.Soak.BatchSize = r.Spec.Batch
	}
}

// Resolve completes a request whose knobs have been Set: it fills the unset
// fields from the knob defaults and applies the checks no single knob can —
// the experiment and column exist, kmin <= kmax, and a single-k experiment's
// k (possibly inherited from kmax) is in k's domain. Two requests that
// compute the same cell resolve to equal values, so the content address is
// taken after Resolve. Every error is the caller's (exit 2, http 400).
func Resolve(r *Request) error {
	e, err := lookup(r.Spec.Experiment)
	if err != nil {
		return err
	}
	r.applyDefaults()
	if r.Config.KMin > r.Config.KMax {
		return fmt.Errorf("kmin=%d > kmax=%d", r.Config.KMin, r.Config.KMax)
	}
	if e.singleK {
		if err := kKnob.Set(r, kKnob.Get(r)); err != nil {
			return err
		}
	}
	if r.Spec.Column != "" && e.header != nil {
		if _, err := columnIndex(e.header, r.Spec.Column); err != nil {
			return err
		}
	}
	return nil
}

// errBadMix is all parseMix reports; the mix knob's message states the format.
var errBadMix = errors.New("malformed mix")

// parseMix reads "link,switch,conv,pod" relative weights into a chaos.Mix
// that keeps DefaultMix's severity settings; empty selects the default mix
// entirely.
func parseMix(s string) (chaos.Mix, error) {
	if s == "" {
		return chaos.Mix{}, nil
	}
	var w [4]float64
	fields := strings.Split(s, ",")
	if len(fields) != len(w) {
		return chaos.Mix{}, errBadMix
	}
	total := 0.0
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(v >= 0) {
			return chaos.Mix{}, errBadMix
		}
		w[i] = v
		total += v
	}
	if !(total > 0) {
		return chaos.Mix{}, errBadMix
	}
	m := chaos.DefaultMix()
	m.LinkBurst, m.SwitchKill, m.ConverterKill, m.PodKill = w[0], w[1], w[2], w[3]
	return m, nil
}

// formatMix is parseMix's inverse.
func formatMix(b []byte, m chaos.Mix) []byte {
	if m == (chaos.Mix{}) {
		return b
	}
	return fmt.Appendf(b, "%g,%g,%g,%g", m.LinkBurst, m.SwitchKill, m.ConverterKill, m.PodKill)
}
