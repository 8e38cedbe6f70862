// Package lp is a self-contained linear-programming toolkit: a dense
// tableau primal simplex solver with dual extraction, for one shape of
// problem.
//
// The paper solves the relaxed problem Z_f (§III-E) with CPLEX/MOSEK;
// this package is the stdlib-only substitute documented in DESIGN.md. It
// targets the problems the framework writes: path-packing LPs — the
// column-generation master and the oracle's per-component root LP —
// whose rows are driver convexity and task packing, Σ f ≤ 1 (a few
// thousand rows/columns). The exact integral optimum Z* is
// internal/bound's, by path enumeration.
//
// Problems are stated as
//
//	maximize  c·x
//	subject to  a_i·x ≤ b_i   for every row i, with b_i ≥ 0
//	            x ≥ 0
//
// so x = 0 is always feasible and the simplex starts from the all-slack
// basis: there is no phase 1 and no infeasible outcome. Variables are
// non-negative; upper bounds are expressed as rows. Solver is the entry
// point.
package lp

import (
	"fmt"
	"math"
)

// Status is the outcome of a solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Unbounded
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Entry is one nonzero coefficient of a constraint row.
type Entry struct {
	Col int
	Val float64
}

type row struct {
	entries []Entry
	rhs     float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create with NewProblem.
type Problem struct {
	numVars int
	obj     []float64
	rows    []row
}

// NewProblem returns an empty maximization problem with numVars
// non-negative variables, all with zero objective coefficient.
func NewProblem(numVars int) *Problem {
	if numVars <= 0 {
		panic(fmt.Sprintf("lp: non-positive variable count %d", numVars))
	}
	return &Problem{numVars: numVars, obj: make([]float64, numVars)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.numVars }

// SetObjective sets the objective coefficient of variable col.
func (p *Problem) SetObjective(col int, val float64) {
	p.checkCol(col)
	p.obj[col] = val
}

// AddVar appends a new variable with the given objective coefficient and
// returns its column index. Column generation uses it to grow the
// restricted master.
func (p *Problem) AddVar(objCoeff float64) int {
	p.obj = append(p.obj, objCoeff)
	p.numVars++
	return p.numVars - 1
}

// SetCoeff sets (or adds) the coefficient of variable col in row r.
func (p *Problem) SetCoeff(r, col int, val float64) {
	if r < 0 || r >= len(p.rows) {
		panic(fmt.Sprintf("lp: row %d out of range [0,%d)", r, len(p.rows)))
	}
	p.checkCol(col)
	for i := range p.rows[r].entries {
		if p.rows[r].entries[i].Col == col {
			p.rows[r].entries[i].Val = val
			return
		}
	}
	p.rows[r].entries = append(p.rows[r].entries, Entry{Col: col, Val: val})
}

// AddRow appends the constraint Σ entries ≤ rhs and returns its row
// index. A negative or NaN rhs, or an entry with an out-of-range
// column, causes a panic: rows are built from program logic, not user
// input.
func (p *Problem) AddRow(rhs float64, entries ...Entry) int {
	if !(rhs >= 0) {
		panic(fmt.Sprintf("lp: row rhs %v is negative or NaN", rhs))
	}
	for _, e := range entries {
		p.checkCol(e.Col)
	}
	p.rows = append(p.rows, row{entries: append([]Entry(nil), entries...), rhs: rhs})
	return len(p.rows) - 1
}

func (p *Problem) checkCol(col int) {
	if col < 0 || col >= p.numVars {
		panic(fmt.Sprintf("lp: column %d out of range [0,%d)", col, p.numVars))
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // one value per structural variable
	Duals     []float64 // one multiplier per constraint row
	Iters     int
}

const eps = 1e-9 // pivot / feasibility tolerance

// tableau is the dense simplex working state.
//
// Column layout: [0, nv) structural, [nv, nv+m) slack, the slack of row
// i being column nv+i. rhs is kept separately.
//
// Every slice is grown in place by init and never shrunk, so a tableau
// embedded in a Solver re-solves without touching the allocator once
// its high-water marks are reached.
type tableau struct {
	m, nTotal, nv int
	a             [][]float64 // m x nTotal, row headers into rowBuf
	rowBuf        []float64   // flat backing store for a
	rhs           []float64   // m
	basis         []int       // m, column index basic in each row
	obj           []float64   // structural objective, length nTotal (zeros beyond nv)
	iterBudget    int

	// Reused per-solve scratch (see optimize / solve / extractDuals).
	inBasisBuf []bool
	y          []float64
	reduced    []float64
	xBuf       []float64
	dualsBuf   []float64
}

// init loads the problem into the tableau at the all-slack basis,
// reusing any backing arrays a previous init left behind.
func (t *tableau) init(p *Problem) {
	m := len(p.rows)
	nv := p.numVars
	nTotal := nv + m
	t.m, t.nTotal, t.nv = m, nTotal, nv
	t.rowBuf = grow(t.rowBuf, m*nTotal)
	for i := range t.rowBuf {
		t.rowBuf[i] = 0
	}
	t.a = grow(t.a, m)
	for i := 0; i < m; i++ {
		t.a[i] = t.rowBuf[i*nTotal : (i+1)*nTotal : (i+1)*nTotal]
	}
	t.rhs = grow(t.rhs, m)
	t.basis = grow(t.basis, m)
	t.obj = grow(t.obj, nTotal)
	copy(t.obj, p.obj)
	for i := nv; i < nTotal; i++ {
		t.obj[i] = 0
	}
	t.iterBudget = 2000 + 60*(m+nTotal)

	for i, r := range p.rows {
		for _, e := range r.entries {
			t.a[i][e.Col] += e.Val
		}
		t.rhs[i] = r.rhs
		t.a[i][nv+i] = 1
		t.basis[i] = nv + i
	}
}

// solve optimizes the objective from the tableau's current basis and
// extracts primal and dual values.
func (t *tableau) solve() Solution {
	st, iters := t.optimize()
	sol := Solution{Status: st, Iters: iters}
	if st != Optimal {
		return sol
	}

	t.xBuf = grow(t.xBuf, t.nv)
	sol.X = t.xBuf
	for i := range sol.X {
		sol.X[i] = 0
	}
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b < t.nv {
			sol.X[b] = t.rhs[i]
		}
	}
	for c, coef := range t.obj[:t.nv] {
		sol.Objective += coef * sol.X[c]
	}
	sol.Duals = t.extractDuals()
	return sol
}

// optimize runs primal simplex iterations on the objective, maximizing.
func (t *tableau) optimize() (Status, int) {
	// reduced[j] = obj[j] - y·a_j, priced against the current basis each
	// iteration (dense, O(m·n)) row by row: each row with y_i ≠ 0 is
	// subtracted from every column in one pass over its contiguous
	// entries, and each column still takes its rows in ascending order,
	// so every reduced cost is the same sum to the bit as a column's own
	// dot product.
	iters := 0
	blandAfter := t.iterBudget / 2
	t.reduced = grow(t.reduced, t.nTotal)
	reduced := t.reduced
	t.inBasisBuf = grow(t.inBasisBuf, t.nTotal)
	inBasis := t.inBasisBuf
	for i := range inBasis {
		inBasis[i] = false
	}
	for i := 0; i < t.m; i++ {
		inBasis[t.basis[i]] = true
	}
	for ; iters < t.iterBudget; iters++ {
		copy(reduced, t.obj)
		for i, yi := range t.dualVector() {
			if yi != 0 {
				for j, aij := range t.a[i] {
					reduced[j] -= yi * aij
				}
			}
		}
		enter := -1
		bestScore := eps
		for j, red := range reduced {
			if inBasis[j] {
				continue
			}
			if red > bestScore {
				if iters > blandAfter {
					// Bland's rule: first improving column.
					enter = j
					break
				}
				bestScore = red
				enter = j
			}
		}
		if enter < 0 {
			return Optimal, iters
		}

		leave := t.ratioTest(enter)
		if leave < 0 {
			return Unbounded, iters
		}
		inBasis[t.basis[leave]] = false
		inBasis[enter] = true
		t.pivot(leave, enter)
	}
	return IterLimit, iters
}

// ratioTest returns the row that leaves the basis when column enter
// enters — the least rhs/a ratio over positive entries, ties to the
// lower basic column — or -1 when no entry is positive.
func (t *tableau) ratioTest(enter int) int {
	leave := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		if t.a[i][enter] > eps {
			ratio := t.rhs[i] / t.a[i][enter]
			if ratio < bestRatio-eps ||
				(ratio < bestRatio+eps && leave >= 0 && t.basis[i] < t.basis[leave]) {
				bestRatio = ratio
				leave = i
			}
		}
	}
	return leave
}

// dualVector returns y with y_i = obj[basis[i]]: since rows are kept in
// product form (B^{-1}A), the reduced cost of column j is
// obj[j] - Σ_i obj[basis[i]]·a[i][j].
func (t *tableau) dualVector() []float64 {
	t.y = grow(t.y, t.m)
	y := t.y
	for i := 0; i < t.m; i++ {
		y[i] = t.obj[t.basis[i]]
	}
	return y
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	pv := t.a[leave][enter]
	inv := 1 / pv
	rowL := t.a[leave]
	for j := 0; j < t.nTotal; j++ {
		rowL[j] *= inv
	}
	t.rhs[leave] *= inv
	rowL[enter] = 1 // kill residual error

	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		rowI := t.a[i]
		for j := 0; j < t.nTotal; j++ {
			rowI[j] -= f * rowL[j]
		}
		rowI[enter] = 0
		t.rhs[i] -= f * t.rhs[leave]
		if t.rhs[i] < 0 && t.rhs[i] > -eps {
			t.rhs[i] = 0
		}
	}
	t.basis[leave] = enter
}

// extractDuals recovers the dual multiplier of each constraint.
//
// The tableau rows are B⁻¹A, so for any column j,
// Σ_k c_B[k]·a[k][j] = y*·a_j^orig where y* = c_B·B⁻¹ is the dual
// vector. Pricing row i's slack, whose original column is exactly e_i,
// gives y*_i.
func (t *tableau) extractDuals() []float64 {
	y := t.dualVector()
	t.dualsBuf = grow(t.dualsBuf, t.m)
	duals := t.dualsBuf
	for i := 0; i < t.m; i++ {
		col := t.nv + i
		var dot float64
		for k := 0; k < t.m; k++ {
			dot += y[k] * t.a[k][col]
		}
		duals[i] = dot
	}
	return duals
}
