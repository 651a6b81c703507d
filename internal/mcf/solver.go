package mcf

import (
	"context"

	"flattree/internal/topo"
)

// Solver is one pooled solve state under the name benchmark/ compiles
// against. Holding one across calls buys nothing but the scratch memory:
// Solve is MaxConcurrentFlow, a pure function of its own instance. New code
// calls MaxConcurrentFlow; these doors go when benchmark/ stops using them
// (ROADMAP item 1).
type Solver solveState

// GetSolver pops a pooled solve state.
func GetSolver() *Solver { return (*Solver)(getState()) }

// Solve is MaxConcurrentFlow on the held scratch.
func (s *Solver) Solve(ctx context.Context, nw *topo.Network, commodities []Commodity, opt Options) (Result, error) {
	return (*solveState)(s).solve(ctx, nw, commodities, opt)
}

// Release returns the state to the pool. The caller must not use it
// afterwards.
func (s *Solver) Release() { putState((*solveState)(s)) }
