package metrics

import "sort"

// OnlyTested has no caller outside tests: a testonly finding.
func OnlyTested() int { return 1 }

// Countdown calls only itself; a self-reference is not a caller, so this is
// a finding too.
func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Oracle is a reference the tests compare against; its directive waives
// the finding.
//
//flatlint:ignore testonly reference oracle kept beside the code it checks
func Oracle() int { return 2 }

// Median is called from cmd/fixture.
func Median(xs []float64) float64 {
	sort.Sort(byValue(xs))
	return xs[len(xs)/2]
}

// Stored is never called, only stored as a value in Handlers: a reference
// all the same.
func Stored() int { return 3 }

// Handlers is read by cmd/fixture.
var Handlers = map[string]func() int{"stored": Stored}

// byValue reaches Len, Less and Swap only through sort.Interface.
type byValue []float64

func (b byValue) Len() int           { return len(b) }
func (b byValue) Less(i, j int) bool { return b[i] < b[j] }
func (b byValue) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Level's String is reached through fmt.Stringer, which no file names.
type Level int

func (l Level) String() string { return "level" }
