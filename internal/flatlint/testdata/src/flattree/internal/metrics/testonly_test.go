package metrics

import "testing"

// A test is not a caller: OnlyTested, Countdown, Reference and the
// normalize it calls stay findings.
func TestOnlyTested(t *testing.T) {
	if OnlyTested()+Countdown(3) != 1 || Reference([]float64{2, 1}) != 1 {
		t.Fatal("fixture arithmetic")
	}
}
