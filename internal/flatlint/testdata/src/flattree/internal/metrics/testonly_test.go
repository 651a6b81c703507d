package metrics

import "testing"

// A test is not a caller: OnlyTested and Countdown stay findings.
func TestOnlyTested(t *testing.T) {
	if OnlyTested()+Countdown(3) != 1 {
		t.Fatal("fixture arithmetic")
	}
}
