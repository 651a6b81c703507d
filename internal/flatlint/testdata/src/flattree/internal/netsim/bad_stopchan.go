// Package netsim is the stopchan fixture: raw stop/quit channels in the
// context-scoped packages must be flagged unless annotated.
package netsim

// runLoop builds a raw stop channel and is flagged.
func runLoop() chan struct{} {
	stop := make(chan struct{})
	return stop
}

// legacyLoop keeps its quit channel under a reasoned waiver.
func legacyLoop() chan struct{} {
	//flatlint:ignore stopchan fixture: legacy shutdown path kept for comparison
	quit := make(chan struct{}, 1)
	return quit
}
