// Package lp is a self-contained linear-programming toolkit: a dense
// two-phase primal simplex solver with dual extraction.
//
// The paper solves the relaxed problem Z_f (§III-E) with CPLEX/MOSEK;
// this package is the stdlib-only substitute documented in DESIGN.md. It
// targets the problem sizes the framework produces: restricted-master
// LPs from column generation (a few thousand rows/columns). The exact
// integral optimum Z* is internal/bound's, by path enumeration.
//
// Problems are stated as
//
//	maximize  c·x
//	subject to  a_i·x {≤,=,≥} b_i   for every row i
//	            x ≥ 0
//
// Variables are non-negative; upper bounds are expressed as rows.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	GE              // a·x ≥ b
	EQ              // a·x = b
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Status is the outcome of a solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
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
	sense   Sense
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

// AddRow appends the constraint Σ entries ≤/=/≥ rhs and returns its row
// index. Entries with out-of-range columns cause a panic: rows are built
// from program logic, not user input.
func (p *Problem) AddRow(sense Sense, rhs float64, entries ...Entry) int {
	for _, e := range entries {
		p.checkCol(e.Col)
	}
	p.rows = append(p.rows, row{entries: append([]Entry(nil), entries...), sense: sense, rhs: rhs})
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

const (
	eps     = 1e-9 // pivot / feasibility tolerance
	dualEps = 1e-7 // phase-1 residual tolerance
)

// Solve runs the two-phase primal simplex method. It returns an error
// only for malformed problems; infeasibility and unboundedness are
// reported in Solution.Status.
func Solve(p *Problem) (Solution, error) {
	if p == nil || p.numVars == 0 {
		return Solution{}, errors.New("lp: empty problem")
	}
	t := newTableau(p)
	sol := t.solve()
	return sol, nil
}

// tableau is the dense simplex working state.
//
// Column layout: [0, nv) structural, [nv, nv+ns) slack/surplus,
// [nv+ns, nv+ns+na) artificial. rhs is kept separately.
//
// Every slice is grown in place by init and never shrunk, so a tableau
// embedded in a Solver re-solves without touching the allocator once
// its high-water marks are reached.
type tableau struct {
	m, nTotal  int
	nv, ns, na int
	a          [][]float64 // m x nTotal, row headers into rowBuf
	rowBuf     []float64   // flat backing store for a
	rhs        []float64   // m
	basis      []int       // m, column index basic in each row
	obj        []float64   // structural objective, length nTotal (zeros beyond nv)
	artOf      []int       // row -> artificial column (-1 if none)
	slackOf    []int       // row -> slack column (-1 if none)
	rowSign    []float64   // ±1: -1 when the row was negated to make rhs ≥ 0
	iterBudget int

	// Reused per-solve scratch (see optimize / solve / extractDuals).
	inBasisBuf []bool
	y          []float64
	phase1Buf  []float64
	xBuf       []float64
	dualsBuf   []float64
}

func newTableau(p *Problem) *tableau {
	t := &tableau{}
	t.init(p)
	return t
}

// init loads the problem into the tableau, reusing any backing arrays a
// previous init left behind.
func (t *tableau) init(p *Problem) {
	m := len(p.rows)
	nv := p.numVars

	ns := 0
	na := 0
	for _, r := range p.rows {
		rhs := r.rhs
		sense := r.sense
		if rhs < 0 {
			sense = flip(sense)
		}
		switch sense {
		case LE:
			ns++
		case GE:
			ns++
			na++
		case EQ:
			na++
		}
	}
	nTotal := nv + ns + na
	t.m, t.nTotal, t.nv, t.ns, t.na = m, nTotal, nv, ns, na
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
	t.artOf = grow(t.artOf, m)
	t.slackOf = grow(t.slackOf, m)
	t.rowSign = grow(t.rowSign, m)
	copy(t.obj, p.obj)
	for i := nv; i < nTotal; i++ {
		t.obj[i] = 0
	}
	t.iterBudget = 2000 + 60*(m+nTotal)

	slackCol := nv
	artCol := nv + ns
	for i, r := range p.rows {
		sign := 1.0
		rhs := r.rhs
		sense := r.sense
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			sense = flip(sense)
		}
		for _, e := range r.entries {
			t.a[i][e.Col] += sign * e.Val
		}
		t.rhs[i] = rhs
		t.artOf[i] = -1
		t.slackOf[i] = -1
		t.rowSign[i] = sign

		switch sense {
		case LE:
			t.a[i][slackCol] = 1
			t.slackOf[i] = slackCol
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			t.slackOf[i] = slackCol
			slackCol++
			t.a[i][artCol] = 1
			t.artOf[i] = artCol
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.a[i][artCol] = 1
			t.artOf[i] = artCol
			t.basis[i] = artCol
			artCol++
		}
	}
}

func flip(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// solve runs phase 1 (drive artificials out) then phase 2 (optimize the
// real objective), and extracts primal and dual values.
func (t *tableau) solve() Solution {
	totalIters := 0
	if t.na > 0 {
		// Phase 1: minimize sum of artificials == maximize -sum.
		t.phase1Buf = grow(t.phase1Buf, t.nTotal)
		phase1 := t.phase1Buf
		for i := range phase1 {
			phase1[i] = 0
		}
		for i := 0; i < t.m; i++ {
			if c := t.artOf[i]; c >= 0 {
				phase1[c] = -1
			}
		}
		st, iters := t.optimize(phase1, true)
		totalIters += iters
		if st == IterLimit {
			return Solution{Status: IterLimit, Iters: totalIters}
		}
		// Infeasible if any artificial retains positive value.
		for i := 0; i < t.m; i++ {
			if isArt := t.basis[i] >= t.nv+t.ns; isArt && t.rhs[i] > dualEps {
				return Solution{Status: Infeasible, Iters: totalIters}
			}
		}
		// Pivot any degenerate artificials out of the basis where
		// possible so phase 2 starts from a clean basis.
		t.evictArtificials()
	}

	st, iters := t.optimize(t.obj, false)
	totalIters += iters
	sol := Solution{Status: st, Iters: totalIters}
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

// optimize runs primal simplex iterations for the given objective,
// maximizing. In phase 1 (phase1 == true) artificial columns may stay in
// play; in phase 2 they are barred from entering.
func (t *tableau) optimize(obj []float64, phase1 bool) (Status, int) {
	// reduced[j] = obj[j] - y·a_j, priced against the current basis each
	// iteration (dense, O(m·n)).
	iters := 0
	blandAfter := t.iterBudget / 2
	t.inBasisBuf = grow(t.inBasisBuf, t.nTotal)
	inBasis := t.inBasisBuf
	for i := range inBasis {
		inBasis[i] = false
	}
	for i := 0; i < t.m; i++ {
		inBasis[t.basis[i]] = true
	}
	colLimit := t.nTotal
	if !phase1 {
		colLimit = t.nv + t.ns // artificials barred in phase 2
	}
	for ; iters < t.iterBudget; iters++ {
		y := t.dualVector(obj)
		enter := -1
		bestScore := eps
		for j := 0; j < colLimit; j++ {
			if inBasis[j] {
				continue
			}
			red := obj[j]
			for i := 0; i < t.m; i++ {
				if y[i] != 0 {
					red -= y[i] * t.a[i][j]
				}
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

		// Ratio test.
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
		if leave < 0 {
			return Unbounded, iters
		}
		inBasis[t.basis[leave]] = false
		inBasis[enter] = true
		t.pivot(leave, enter)
	}
	return IterLimit, iters
}

// dualVector returns y with y_i = obj[basis[i]] transformed through the
// current tableau: since rows are kept in product form (B^{-1}A), the
// reduced cost of column j is obj[j] - Σ_i obj[basis[i]]·a[i][j].
func (t *tableau) dualVector(obj []float64) []float64 {
	t.y = grow(t.y, t.m)
	y := t.y
	for i := 0; i < t.m; i++ {
		y[i] = obj[t.basis[i]]
	}
	return y
}

func (t *tableau) inBasis(col int) bool {
	for i := 0; i < t.m; i++ {
		if t.basis[i] == col {
			return true
		}
	}
	return false
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

// evictArtificials pivots zero-valued artificial basics out where a
// nonzero structural/slack coefficient exists in their row.
func (t *tableau) evictArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.nv+t.ns {
			continue
		}
		for j := 0; j < t.nv+t.ns; j++ {
			if math.Abs(t.a[i][j]) > eps && !t.inBasis(j) {
				t.pivot(i, j)
				break
			}
		}
	}
}

// extractDuals recovers the dual multiplier of each original constraint.
//
// The tableau rows are B⁻¹A, so for any column j,
// Σ_k c_B[k]·a[k][j] = y*·a_j^orig where y* = c_B·B⁻¹ is the dual vector
// of the *normalized* rows. We price a column whose original coefficient
// in row i is exactly +e_i: the slack for LE rows, the artificial for GE
// and EQ rows. The dual of the user's original row then differs from
// y*_i only by the ±1 normalization sign applied when rhs was negative.
func (t *tableau) extractDuals() []float64 {
	y := t.dualVector(t.obj)
	t.dualsBuf = grow(t.dualsBuf, t.m)
	duals := t.dualsBuf
	for i := 0; i < t.m; i++ {
		col := t.artOf[i]
		if col < 0 {
			col = t.slackOf[i] // LE row: slack has coefficient +1
		}
		var dot float64
		for k := 0; k < t.m; k++ {
			dot += y[k] * t.a[k][col]
		}
		duals[i] = t.rowSign[i] * dot
	}
	return duals
}
