// Package twostage is the testonly fixture for a package no main links: it
// is not test support, so testonly still applies and both functions are
// findings.
package twostage

// Plan is reached by no main.
func Plan(n int) int { return half(n) }

func half(n int) int { return n / 2 }
