package lp

import "errors"

// Solver owns one tableau whose backing arrays are grown to the
// high-water mark of the problems it sees and reused for every solve
// after that: the oracle prices thousands of per-component LPs in one
// run, and column generation re-solves its growing master every round,
// so the dense m×n working state is not reallocated and re-zeroed from
// the heap each time — the same pooling discipline
// matching.SparseSolver applies to window clearing.

// Solver carries the reusable working state of repeated LP solves. The
// zero value is ready to use; a Solver is not safe for concurrent
// Solve calls. Solutions returned by its methods alias the solver's
// arena: X and Duals are valid until the next solve and must be copied
// to be retained — the same ownership contract as
// matching.SparseSolver.Solve.
type Solver struct {
	t tableau
}

// Solve runs the primal simplex on p from the all-slack basis, reusing
// the solver's arena. It returns an error only for an empty problem;
// unboundedness and the iteration limit are reported in
// Solution.Status.
func (s *Solver) Solve(p *Problem) (Solution, error) {
	return s.SolveWarm(p, nil)
}

// SolveWarm is Solve with a warm-start hint: before optimizing, the
// given structural columns are pivoted into the starting basis (in
// order, via the usual ratio test), so the simplex begins at — or near —
// the vertex those columns describe instead of the all-slack origin.
// The canonical use is seeding a path-packing LP with an incumbent
// assignment's columns: re-proving or improving a good incumbent then
// costs a handful of pivots rather than a full climb from zero.
//
// The hint is best-effort and never affects the result, only the
// iteration count: columns that are already basic, out of range, or
// admit no valid pivot are skipped.
func (s *Solver) SolveWarm(p *Problem, warm []int) (Solution, error) {
	if p == nil || p.numVars == 0 {
		return Solution{}, errors.New("lp: empty problem")
	}
	s.t.init(p)
	s.t.crashBasis(warm)
	return s.t.solve(), nil
}

// crashBasis pivots the given structural columns into the basis before
// optimization. Each pivot row is chosen by the standard ratio test, so
// primal feasibility (rhs ≥ 0) is preserved; columns with no positive
// pivot candidate are skipped rather than forced.
func (t *tableau) crashBasis(warm []int) {
	for _, j := range warm {
		if j < 0 || j >= t.nv || t.inBasis(j) {
			continue
		}
		if leave := t.ratioTest(j); leave >= 0 {
			t.pivot(leave, j)
		}
	}
}

func (t *tableau) inBasis(col int) bool {
	for i := 0; i < t.m; i++ {
		if t.basis[i] == col {
			return true
		}
	}
	return false
}

// grow returns s resized to n elements. It reallocates only when the
// capacity is short, keeping the contents up to the old capacity, and
// never shrinks.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		s = append(s[:cap(s)], make(S, n-cap(s))...)
	}
	return s[:n]
}
