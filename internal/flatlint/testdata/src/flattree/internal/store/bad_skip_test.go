package store

import "testing"

// TestSkipsWhenFast skips when its precondition fails (flagged twice: a
// negated guard is no -short guard) and under -short (allowed).
func TestSkipsWhenFast(t *testing.T) {
	fast := true
	if fast {
		t.Skip("finished too fast; nothing to assert")
	}
	if !testing.Short() {
		t.SkipNow()
	}
	if testing.Short() {
		t.Skip("slow; skipped in -short")
	}
	if (testing.Short() && fast) || fast {
		t.Skipf("an || is no guard")
	}
}

// BenchmarkGuarded skips under -short through an && chain and from a
// closure inside the guard: both allowed.
func BenchmarkGuarded(b *testing.B) {
	if fast := true; fast && testing.Short() {
		b.Skip("slow")
		func() { b.SkipNow() }()
	}
	//flatlint:ignore testskip fixture: suppressed finding for the directive test
	b.Skipf("waived")
}
