// Package lp is a small dense linear-programming solver: a two-phase
// primal simplex with Bland's anti-cycling rule. The flat-tree paper
// computes throughput by solving the maximum concurrent multi-commodity
// flow LP with "a linear programming solver" (§3.1); this package plays
// that role for small instances behind the test-only internal/oracle,
// against which the approximation scheme in internal/mcf that handles
// paper-scale instances is checked. No product code imports it.
//
// The solver is deliberately simple (dense tableau, O(m·n) per pivot) —
// it is a reference implementation, not a production barrier method — but
// it is exact up to floating-point tolerance and handles <=, >=, and =
// constraints with free or non-negative variables.
package lp

import (
	"fmt"
	"math"
	"sort"
)

// Sense is a constraint relation.
type Sense int8

const (
	// LE is <=.
	LE Sense = iota
	// GE is >=.
	GE
	// EQ is =.
	EQ
)

// Status reports the outcome of a solve.
type Status int8

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("status(%d)", int8(s))
}

type constraint struct {
	coefs map[int]float64
	sense Sense
	rhs   float64
}

// Problem is an LP under construction. All variables are non-negative.
type Problem struct {
	numVars     int
	objective   []float64
	maximize    bool
	constraints []constraint
}

// NewProblem creates a problem with numVars non-negative variables,
// initially with a zero objective.
func NewProblem(numVars int) *Problem {
	return &Problem{numVars: numVars, objective: make([]float64, numVars)}
}

// SetObjectiveCoef sets the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoef(v int, c float64) { p.objective[v] = c }

// Maximize selects maximization (default is minimization).
func (p *Problem) Maximize() { p.maximize = true }

// AddConstraint appends sum(coefs[v]*x[v]) sense rhs.
func (p *Problem) AddConstraint(coefs map[int]float64, sense Sense, rhs float64) {
	// Visit variables in sorted order so that when several indices are out
	// of range, the panic always names the smallest one.
	vars := make([]int, 0, len(coefs))
	for v := range coefs {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	cp := make(map[int]float64, len(coefs))
	for _, v := range vars {
		c := coefs[v]
		if v < 0 || v >= p.numVars {
			//flatlint:ignore nopanic out-of-range variable index is a programmer error in problem construction
			panic(fmt.Sprintf("lp: constraint references variable %d of %d", v, p.numVars))
		}
		if c != 0 { //flatlint:ignore floatcmp prunes coefficients that are structurally absent (exact zero)
			cp[v] = c
		}
	}
	p.constraints = append(p.constraints, constraint{coefs: cp, sense: sense, rhs: rhs})
}

// Solution is the result of a successful solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const eps = 1e-9

// Solve runs the two-phase simplex.
func (p *Problem) Solve() (Solution, error) {
	m := len(p.constraints)
	n := p.numVars

	// Count auxiliary columns: one slack/surplus per inequality, one
	// artificial per GE/EQ (and per LE with negative rhs after flip —
	// handled by flipping rows so rhs >= 0 first).
	type rowSpec struct {
		coefs map[int]float64
		sense Sense
		rhs   float64
	}
	rows := make([]rowSpec, m)
	for i, c := range p.constraints {
		r := rowSpec{coefs: c.coefs, sense: c.sense, rhs: c.rhs}
		if r.rhs < 0 {
			flipped := make(map[int]float64, len(r.coefs))
			for v, cf := range r.coefs {
				flipped[v] = -cf
			}
			r.coefs = flipped
			r.rhs = -r.rhs
			switch r.sense {
			case LE:
				r.sense = GE
			case GE:
				r.sense = LE
			}
		}
		rows[i] = r
	}

	slackCols := 0
	artCols := 0
	for _, r := range rows {
		if r.sense != EQ {
			slackCols++
		}
		if r.sense != LE {
			artCols++
		}
	}
	total := n + slackCols + artCols
	// Tableau: m rows of total+1 (last column is RHS).
	t := make([][]float64, m)
	basis := make([]int, m)
	isArtificial := make([]bool, total)
	slackAt := n
	artAt := n + slackCols
	for i, r := range rows {
		row := make([]float64, total+1)
		for v, cf := range r.coefs {
			row[v] = cf
		}
		row[total] = r.rhs
		switch r.sense {
		case LE:
			row[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			isArtificial[artAt] = true
			basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			isArtificial[artAt] = true
			basis[i] = artAt
			artAt++
		}
		t[i] = row
	}

	// pivot makes column col basic in row r.
	pivot := func(r, col int) {
		pr := t[r]
		pv := pr[col]
		for j := range pr {
			pr[j] /= pv
		}
		for i := range t {
			if i == r {
				continue
			}
			f := t[i][col]
			if f == 0 { //flatlint:ignore floatcmp skipping exact zeros is a sparsity optimization, not a tolerance
				continue
			}
			ri := t[i]
			for j := range ri {
				ri[j] -= f * pr[j]
			}
		}
		basis[r] = col
	}

	// simplexMin minimizes cost'x from the current basic feasible point.
	// forbid marks columns that may not enter. Returns the status.
	simplexMin := func(cost []float64, forbid []bool) Status {
		// y[i] = cost of basic var in row i; reduced cost r_j = cost_j -
		// sum_i y_i * t[i][j].
		for iter := 0; ; iter++ {
			if iter > 50000 {
				// Bland's rule precludes cycling; this guards against
				// numerical stalls on pathological inputs.
				return Infeasible
			}
			enter := -1
			for j := 0; j < total; j++ {
				if forbid != nil && forbid[j] {
					continue
				}
				rc := cost[j]
				for i := 0; i < m; i++ {
					cb := cost[basis[i]]
					if cb != 0 { //flatlint:ignore floatcmp skipping exact zeros is a sparsity optimization, not a tolerance
						rc -= cb * t[i][j]
					}
				}
				if rc < -eps {
					enter = j // Bland: first improving column
					break
				}
			}
			if enter < 0 {
				return Optimal
			}
			leave := -1
			bestRatio := math.Inf(1)
			for i := 0; i < m; i++ {
				a := t[i][enter]
				if a > eps {
					ratio := t[i][total] / a
					if ratio < bestRatio-eps ||
						(ratio < bestRatio+eps && (leave < 0 || basis[i] < basis[leave])) {
						bestRatio = ratio
						leave = i
					}
				}
			}
			if leave < 0 {
				return Unbounded
			}
			pivot(leave, enter)
		}
	}

	// Phase 1: minimize the sum of artificials.
	if artCols > 0 {
		cost := make([]float64, total)
		for j := n + slackCols; j < total; j++ {
			cost[j] = 1
		}
		st := simplexMin(cost, nil)
		if st == Unbounded {
			return Solution{}, fmt.Errorf("lp: phase 1 unbounded (internal error)")
		}
		sum := 0.0
		for i := 0; i < m; i++ {
			if isArtificial[basis[i]] {
				sum += t[i][total]
			}
		}
		if sum > 1e-7 {
			return Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if !isArtificial[basis[i]] {
				continue
			}
			done := false
			for j := 0; j < n+slackCols && !done; j++ {
				if math.Abs(t[i][j]) > eps {
					pivot(i, j)
					done = true
				}
			}
			// A fully zero row is a redundant constraint; the artificial
			// stays basic at value 0, which is harmless as long as it
			// never re-enters (forbidden below).
		}
	}

	// Phase 2.
	cost := make([]float64, total)
	for j := 0; j < n; j++ {
		if p.maximize {
			cost[j] = -p.objective[j]
		} else {
			cost[j] = p.objective[j]
		}
	}
	forbid := make([]bool, total)
	for j := range forbid {
		forbid[j] = isArtificial[j]
	}
	st := simplexMin(cost, forbid)
	if st == Unbounded {
		return Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = t[i][total]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.objective[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: obj}, nil
}
