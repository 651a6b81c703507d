// Package oracle is the testonly fixture for a test support package: no
// main links it, and its unreached functions are not findings.
package oracle

// Exact is called by tests alone.
func Exact(n int) int { return n }
