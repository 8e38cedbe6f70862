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

// mustSolve solves p on a fresh Solver, so the Solution owns its slices.
func mustSolve(t *testing.T, p *Problem) Solution {
	t.Helper()
	var s Solver
	sol, err := s.Solve(p)
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
	p.AddRow(4, Entry{0, 1}, Entry{1, 1})
	p.AddRow(6, Entry{0, 1}, Entry{1, 3})
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
	p.AddRow(2, Entry{0, 1})
	p.AddRow(3, Entry{1, 1})
	p.AddRow(4, Entry{0, 1}, Entry{1, 1})
	sol := mustSolve(t, p)
	approx(t, sol.Objective, 4, tol, "objective")
	approx(t, sol.X[0]+sol.X[1], 4, tol, "x+y")
}

func TestSolveUnbounded(t *testing.T) {
	// max x with only −x ≤ 1: x grows without bound.
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddRow(1, Entry{0, -1})
	sol := mustSolve(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveZeroObjective(t *testing.T) {
	// A zero objective is optimal at the all-slack start: no pivot, x = 0.
	p := NewProblem(2)
	p.AddRow(1, Entry{0, 1}, Entry{1, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal || sol.Iters != 0 {
		t.Fatalf("status = %v after %d iterations, want optimal after 0", sol.Status, sol.Iters)
	}
	approx(t, sol.Objective, 0, tol, "objective")
	approx(t, sol.X[0], 0, tol, "x")
	approx(t, sol.X[1], 0, tol, "y")
}

func TestSolveDegenerate(t *testing.T) {
	// Degenerate vertex: three constraints through one point.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddRow(1, Entry{0, 1})
	p.AddRow(1, Entry{1, 1})
	p.AddRow(2, Entry{0, 1}, Entry{1, 1})
	sol := mustSolve(t, p)
	approx(t, sol.Objective, 2, tol, "objective")
}

func TestDualsLE(t *testing.T) {
	// max 3x + 2y s.t. x+y ≤ 4 (dual y1), x+3y ≤ 6 (dual y2).
	// Optimal basis x=4: y1 = 3, y2 = 0.
	p := NewProblem(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	p.AddRow(4, Entry{0, 1}, Entry{1, 1})
	p.AddRow(6, Entry{0, 1}, Entry{1, 3})
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
			p.AddRow(rhs[i], entries...)
		}
		// Add a box to guarantee boundedness.
		for j := 0; j < nv; j++ {
			p.AddRow(10, Entry{j, 1})
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
	// For a max problem every ≤ row's dual is ≥ 0, and a row left slack
	// at the optimum has dual 0: max x − 2y s.t. x + y ≤ 3, x ≤ 1 binds
	// only the second row.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, -2)
	p.AddRow(3, Entry{0, 1}, Entry{1, 1})
	p.AddRow(1, Entry{0, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	approx(t, sol.Duals[0], 0, tol, "dual of the slack row")
	approx(t, sol.Duals[1], 1, tol, "dual of the binding row")
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		sol := mustSolve(t, randomLE(rng))
		for i, d := range sol.Duals {
			if d < -tol {
				t.Fatalf("trial %d: dual of ≤ row %d = %g, want ≥ 0", trial, i, d)
			}
		}
	}
}

func TestAddVarGrowsProblem(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	r := p.AddRow(5, Entry{0, 1})
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
			p.AddRow(lines[i].c, Entry{0, lines[i].a}, Entry{1, lines[i].b})
		}
		// Axes as implicit constraints x,y ≥ 0 plus a box for boundedness.
		lines = append(lines, line{1, 0, 20}, line{0, 1, 20})
		p.AddRow(20, Entry{0, 1})
		p.AddRow(20, Entry{1, 1})

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

// TestQuickSolutionAlwaysFeasible property: a boxed problem with rows of
// mixed-sign coefficients is solved to optimality, and the returned
// point satisfies every constraint.
func TestQuickSolutionAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(6)
		nr := 1 + rng.Intn(6)
		p := NewProblem(nv)
		type rrow struct {
			coeffs []float64
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
			rhs := rng.Float64() * 6
			rows = append(rows, rrow{coeffs, rhs})
			p.AddRow(rhs, entries...)
		}
		for j := 0; j < nv; j++ {
			p.AddRow(8, Entry{j, 1})
			rows = append(rows, rrow{unit(nv, j), 8})
		}
		var s Solver
		sol, err := s.Solve(p)
		if err != nil || sol.Status != Optimal {
			return false // the box bounds every problem and x = 0 is feasible
		}
		for _, r := range rows {
			var lhs float64
			for j, c := range r.coeffs {
				lhs += c * sol.X[j]
			}
			if lhs > r.rhs+1e-6 {
				return false
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

func TestStatusString(t *testing.T) {
	for _, tc := range []struct {
		s    Status
		want string
	}{{Optimal, "optimal"}, {Unbounded, "unbounded"}, {IterLimit, "iteration-limit"}, {Status(-1), "Status(-1)"}} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("Status.String() = %q, want %q", got, tc.want)
		}
	}
}

// TestProblemRangePanics: a problem is built by program logic, so an
// index outside it, or a row that x = 0 would not satisfy, is a bug and
// panics, naming what was wrong.
func TestProblemRangePanics(t *testing.T) {
	mk := func() *Problem {
		p := NewProblem(2)
		p.AddRow(1, Entry{0, 1})
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
		{"AddRow column 2", func() { mk().AddRow(0, Entry{1, 1}, Entry{2, 1}) }, "lp: column 2 out of range [0,2)"},
		{"AddRow rhs -1", func() { mk().AddRow(-1, Entry{0, 1}) }, "lp: row rhs -1 is negative or NaN"},
		{"AddRow rhs NaN", func() { mk().AddRow(math.NaN(), Entry{0, 1}) }, "lp: row rhs NaN is negative or NaN"},
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
