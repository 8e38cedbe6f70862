package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-6

func approx(t *testing.T, got, want, tolerance float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tolerance {
		t.Fatalf("%s = %g, want %g (±%g)", what, got, want, tolerance)
	}
}

func mustSolve(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSolveSimpleLE(t *testing.T) {
	// max 3x + 2y s.t. x+y ≤ 4, x+3y ≤ 6 → x=4, y=0, obj=12.
	p := NewProblem(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	p.AddRow(LE, 4, Entry{0, 1}, Entry{1, 1})
	p.AddRow(LE, 6, Entry{0, 1}, Entry{1, 3})
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	approx(t, sol.Objective, 12, tol, "objective")
	approx(t, sol.X[0], 4, tol, "x")
	approx(t, sol.X[1], 0, tol, "y")
}

func TestSolveInteriorOptimum(t *testing.T) {
	// max x + y s.t. x ≤ 2, y ≤ 3, x+y ≤ 4 → obj 4 on a face.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddRow(LE, 2, Entry{0, 1})
	p.AddRow(LE, 3, Entry{1, 1})
	p.AddRow(LE, 4, Entry{0, 1}, Entry{1, 1})
	sol := mustSolve(t, p)
	approx(t, sol.Objective, 4, tol, "objective")
	approx(t, sol.X[0]+sol.X[1], 4, tol, "x+y")
}

func TestSolveEquality(t *testing.T) {
	// max 2x + y s.t. x + y = 3, x ≤ 2 → x=2, y=1, obj=5.
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 1)
	p.AddRow(EQ, 3, Entry{0, 1}, Entry{1, 1})
	p.AddRow(LE, 2, Entry{0, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	approx(t, sol.Objective, 5, tol, "objective")
	approx(t, sol.X[0], 2, tol, "x")
	approx(t, sol.X[1], 1, tol, "y")
}

func TestSolveGE(t *testing.T) {
	// max -x - y s.t. x + y ≥ 2, i.e. minimize x+y ≥ 2 → obj = -2.
	p := NewProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.AddRow(GE, 2, Entry{0, 1}, Entry{1, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	approx(t, sol.Objective, -2, tol, "objective")
}

func TestSolveNegativeRHS(t *testing.T) {
	// max x s.t. -x ≥ -5 (i.e. x ≤ 5).
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddRow(GE, -5, Entry{0, -1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	approx(t, sol.Objective, 5, tol, "objective")
}

func TestSolveInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 2 is infeasible.
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddRow(LE, 1, Entry{0, 1})
	p.AddRow(GE, 2, Entry{0, 1})
	sol := mustSolve(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// max x with only x ≥ 1.
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddRow(GE, 1, Entry{0, 1})
	sol := mustSolve(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveZeroObjective(t *testing.T) {
	// A pure feasibility problem: any feasible point, objective 0.
	p := NewProblem(2)
	p.AddRow(EQ, 1, Entry{0, 1}, Entry{1, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	approx(t, sol.Objective, 0, tol, "objective")
	approx(t, sol.X[0]+sol.X[1], 1, tol, "x+y")
}

func TestSolveDegenerate(t *testing.T) {
	// Degenerate vertex: three constraints through one point.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddRow(LE, 1, Entry{0, 1})
	p.AddRow(LE, 1, Entry{1, 1})
	p.AddRow(LE, 2, Entry{0, 1}, Entry{1, 1})
	sol := mustSolve(t, p)
	approx(t, sol.Objective, 2, tol, "objective")
}

func TestDualsLE(t *testing.T) {
	// max 3x + 2y s.t. x+y ≤ 4 (dual y1), x+3y ≤ 6 (dual y2).
	// Optimal basis x=4: y1 = 3, y2 = 0.
	p := NewProblem(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	p.AddRow(LE, 4, Entry{0, 1}, Entry{1, 1})
	p.AddRow(LE, 6, Entry{0, 1}, Entry{1, 3})
	sol := mustSolve(t, p)
	approx(t, sol.Duals[0], 3, tol, "dual 0")
	approx(t, sol.Duals[1], 0, tol, "dual 1")
}

func TestDualObjectiveMatchesPrimal(t *testing.T) {
	// Strong duality: b·y == c·x at optimum, on a fixed medium LP.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		nv := 2 + rng.Intn(5)
		nr := 1 + rng.Intn(5)
		p := NewProblem(nv)
		for j := 0; j < nv; j++ {
			p.SetObjective(j, rng.Float64()*4-1)
		}
		rhs := make([]float64, nr)
		for i := 0; i < nr; i++ {
			entries := make([]Entry, nv)
			for j := 0; j < nv; j++ {
				entries[j] = Entry{j, rng.Float64()} // nonneg coeffs keep it bounded-ish
			}
			rhs[i] = 1 + rng.Float64()*5
			p.AddRow(LE, rhs[i], entries...)
		}
		// Add a box to guarantee boundedness.
		for j := 0; j < nv; j++ {
			p.AddRow(LE, 10, Entry{j, 1})
		}
		sol := mustSolve(t, p)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		var dualObj float64
		for i := 0; i < nr; i++ {
			dualObj += rhs[i] * sol.Duals[i]
		}
		for j := 0; j < nv; j++ {
			dualObj += 10 * sol.Duals[nr+j]
		}
		approx(t, dualObj, sol.Objective, 1e-5, "strong duality")
	}
}

func TestDualsAreSignFeasible(t *testing.T) {
	// For a max problem: duals of ≤ rows are ≥ 0, of ≥ rows are ≤ 0.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, -2)
	p.AddRow(LE, 3, Entry{0, 1}, Entry{1, 1})
	p.AddRow(GE, 1, Entry{0, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Duals[0] < -tol {
		t.Errorf("dual of ≤ row = %g, want ≥ 0", sol.Duals[0])
	}
	if sol.Duals[1] > tol {
		t.Errorf("dual of ≥ row = %g, want ≤ 0", sol.Duals[1])
	}
}

func TestAddVarGrowsProblem(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	r := p.AddRow(LE, 5, Entry{0, 1})
	col := p.AddVar(3)
	if col != 1 {
		t.Fatalf("AddVar col = %d, want 1", col)
	}
	p.SetCoeff(r, col, 1)
	sol := mustSolve(t, p)
	// max x + 3y s.t. x + y ≤ 5 → y=5, obj 15.
	approx(t, sol.Objective, 15, tol, "objective")
	approx(t, sol.X[1], 5, tol, "new var")
}

// TestRandomLPAgainstVertexEnumeration cross-checks the simplex against
// brute-force vertex enumeration on random 2-variable LPs, where every
// optimum lies at an intersection of two constraint lines or axes.
func TestRandomLPAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nr := 2 + rng.Intn(4)
		type line struct{ a, b, c float64 } // ax + by ≤ c
		lines := make([]line, nr)
		p := NewProblem(2)
		c0 := rng.Float64()*4 - 2
		c1 := rng.Float64()*4 - 2
		p.SetObjective(0, c0)
		p.SetObjective(1, c1)
		for i := range lines {
			lines[i] = line{rng.Float64() * 2, rng.Float64() * 2, 1 + rng.Float64()*4}
			p.AddRow(LE, lines[i].c, Entry{0, lines[i].a}, Entry{1, lines[i].b})
		}
		// Axes as implicit constraints x,y ≥ 0 plus a box for boundedness.
		lines = append(lines, line{1, 0, 20}, line{0, 1, 20})
		p.AddRow(LE, 20, Entry{0, 1})
		p.AddRow(LE, 20, Entry{1, 1})

		sol := mustSolve(t, p)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}

		feasible := func(x, y float64) bool {
			if x < -tol || y < -tol {
				return false
			}
			for _, l := range lines {
				if l.a*x+l.b*y > l.c+1e-7 {
					return false
				}
			}
			return true
		}
		best := 0.0 // origin is always feasible
		// Enumerate pairwise intersections (incl. axes).
		all := append([]line{{1, 0, 0}, {0, 1, 0}}, lines...)
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				det := all[i].a*all[j].b - all[j].a*all[i].b
				if math.Abs(det) < 1e-12 {
					continue
				}
				x := (all[i].c*all[j].b - all[j].c*all[i].b) / det
				y := (all[i].a*all[j].c - all[j].a*all[i].c) / det
				if feasible(x, y) {
					if v := c0*x + c1*y; v > best {
						best = v
					}
				}
			}
		}
		approx(t, sol.Objective, best, 1e-5, "vs vertex enumeration")
	}
}

// TestQuickSolutionAlwaysFeasible property: whenever the solver reports
// Optimal, the returned point satisfies every constraint.
func TestQuickSolutionAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(6)
		nr := 1 + rng.Intn(6)
		p := NewProblem(nv)
		type rrow struct {
			coeffs []float64
			sense  Sense
			rhs    float64
		}
		var rows []rrow
		for j := 0; j < nv; j++ {
			p.SetObjective(j, rng.Float64()*2-1)
		}
		for i := 0; i < nr; i++ {
			coeffs := make([]float64, nv)
			entries := make([]Entry, nv)
			for j := 0; j < nv; j++ {
				coeffs[j] = rng.Float64()*2 - 0.5
				entries[j] = Entry{j, coeffs[j]}
			}
			sense := Sense(rng.Intn(2)) // LE or GE
			rhs := rng.Float64()*6 - 1
			rows = append(rows, rrow{coeffs, sense, rhs})
			p.AddRow(sense, rhs, entries...)
		}
		for j := 0; j < nv; j++ {
			p.AddRow(LE, 8, Entry{j, 1})
			rows = append(rows, rrow{unit(nv, j), LE, 8})
		}
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			return true // infeasible/unbounded is a legal outcome
		}
		for _, r := range rows {
			var lhs float64
			for j, c := range r.coeffs {
				lhs += c * sol.X[j]
			}
			switch r.sense {
			case LE:
				if lhs > r.rhs+1e-6 {
					return false
				}
			case GE:
				if lhs < r.rhs-1e-6 {
					return false
				}
			}
		}
		for _, x := range sol.X {
			if x < -1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func unit(n, j int) []float64 {
	u := make([]float64, n)
	u[j] = 1
	return u
}

func TestSenseString(t *testing.T) {
	for _, tc := range []struct {
		s    Sense
		want string
	}{{LE, "<="}, {GE, ">="}, {EQ, "=="}, {Sense(7), "Sense(7)"}} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("Sense(%d).String() = %q, want %q", tc.s, got, tc.want)
		}
	}
}

func TestStatusString(t *testing.T) {
	for _, tc := range []struct {
		s    Status
		want string
	}{{Optimal, "optimal"}, {Infeasible, "infeasible"}, {Unbounded, "unbounded"}, {IterLimit, "iteration-limit"}, {Status(-1), "Status(-1)"}} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("Status.String() = %q, want %q", got, tc.want)
		}
	}
}

// TestProblemRangePanics: a problem is built by program logic, so an
// index outside it is a bug and panics, naming what was out of range.
func TestProblemRangePanics(t *testing.T) {
	mk := func() *Problem {
		p := NewProblem(2)
		p.AddRow(LE, 1, Entry{0, 1})
		return p
	}
	for _, tc := range []struct {
		name string
		op   func()
		want string
	}{
		{"NewProblem(0)", func() { NewProblem(0) }, "lp: non-positive variable count 0"},
		{"SetObjective(-1)", func() { mk().SetObjective(-1, 1) }, "lp: column -1 out of range [0,2)"},
		{"SetObjective(2)", func() { mk().SetObjective(2, 1) }, "lp: column 2 out of range [0,2)"},
		{"AddRow column 2", func() { mk().AddRow(GE, 0, Entry{1, 1}, Entry{2, 1}) }, "lp: column 2 out of range [0,2)"},
		{"SetCoeff row 1", func() { mk().SetCoeff(1, 0, 1) }, "lp: row 1 out of range [0,1)"},
		{"SetCoeff row -1", func() { mk().SetCoeff(-1, 0, 1) }, "lp: row -1 out of range [0,1)"},
		{"SetCoeff column 3", func() { mk().SetCoeff(0, 3, 1) }, "lp: column 3 out of range [0,2)"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panicked with %v, want %q", tc.name, got, tc.want)
				}
			}()
			tc.op()
		}()
	}
}
