package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomLE builds a bounded random maximization problem of the one
// shape the package solves: ≤ rows with rhs ≥ 0.
func randomLE(rng *rand.Rand) *Problem {
	nv := 2 + rng.Intn(8)
	nr := 1 + rng.Intn(6)
	p := NewProblem(nv)
	for j := 0; j < nv; j++ {
		p.SetObjective(j, rng.Float64()*4-1)
	}
	for i := 0; i < nr; i++ {
		entries := make([]Entry, nv)
		for j := 0; j < nv; j++ {
			entries[j] = Entry{j, rng.Float64()}
		}
		p.AddRow(1+rng.Float64()*5, entries...)
	}
	for j := 0; j < nv; j++ {
		p.AddRow(10, Entry{j, 1})
	}
	return p
}

// TestSolverMatchesSolve reuses one Solver across many random problems
// of varying shapes and demands bitwise agreement with a fresh Solver
// per problem: the arena must never leak state between solves.
func TestSolverMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s Solver
	for trial := 0; trial < 200; trial++ {
		p := randomLE(rng)
		var fresh Solver
		want, err := fresh.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: fresh Solve: %v", trial, err)
		}
		got, err := s.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: reused Solve: %v", trial, err)
		}
		if got.Status != want.Status || got.Objective != want.Objective || got.Iters != want.Iters {
			t.Fatalf("trial %d: got (%v, %v, %d iters), want (%v, %v, %d iters)",
				trial, got.Status, got.Objective, got.Iters, want.Status, want.Objective, want.Iters)
		}
		if len(got.X) != len(want.X) {
			t.Fatalf("trial %d: |X| = %d, want %d", trial, len(got.X), len(want.X))
		}
		for j := range want.X {
			if got.X[j] != want.X[j] {
				t.Fatalf("trial %d: X[%d] = %v, want %v", trial, j, got.X[j], want.X[j])
			}
		}
		for i := range want.Duals {
			if got.Duals[i] != want.Duals[i] {
				t.Fatalf("trial %d: Duals[%d] = %v, want %v", trial, i, got.Duals[i], want.Duals[i])
			}
		}
	}
}

// TestSolveWarmSameOptimum sweeps warm hints over random problems: warm
// starting may change the pivot path but never the optimum (up to
// simplex tolerance) or the status.
func TestSolveWarmSameOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var cold, warm Solver
	for trial := 0; trial < 200; trial++ {
		p := randomLE(rng)
		want, err := cold.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hint := make([]int, 0, p.NumVars())
		for j := 0; j < p.NumVars(); j++ {
			if rng.Intn(2) == 0 {
				hint = append(hint, j)
			}
		}
		hint = append(hint, -1, p.NumVars()+3) // out-of-range entries must be skipped
		got, err := warm.SolveWarm(p, hint)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v, want %v (hint %v)", trial, got.Status, want.Status, hint)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective)) {
			t.Fatalf("trial %d: warm objective %v, cold %v (hint %v)", trial, got.Objective, want.Objective, hint)
		}
	}
}

// TestSolveWarmPacking warm-starts a path-packing-shaped LP (binary
// coefficient rows, one per driver and per task) from its known optimal
// columns and checks it converges with fewer iterations than cold.
func TestSolveWarmPacking(t *testing.T) {
	// 3 drivers × 3 paths each; path j of driver d covers task j and
	// has value 1 + small driver-dependent tilt so column d*3+d is
	// uniquely optimal for task d.
	const n = 3
	build := func() *Problem {
		p := NewProblem(n * n)
		for d := 0; d < n; d++ {
			for j := 0; j < n; j++ {
				col := d*n + j
				p.SetObjective(col, 1+0.1*float64((d+j)%n))
			}
		}
		for d := 0; d < n; d++ {
			entries := make([]Entry, n)
			for j := 0; j < n; j++ {
				entries[j] = Entry{d*n + j, 1}
			}
			p.AddRow(1, entries...)
		}
		for j := 0; j < n; j++ {
			entries := make([]Entry, n)
			for d := 0; d < n; d++ {
				entries[d] = Entry{d*n + j, 1}
			}
			p.AddRow(1, entries...)
		}
		return p
	}
	var s Solver
	coldSol, err := s.Solve(build())
	if err != nil {
		t.Fatal(err)
	}
	// Optimal columns: for each driver d the path j maximizing the tilt.
	warmCols := []int{0*n + (n - 1), 1*n + (n - 2), 2*n + (n - 3)}
	warmSol, err := s.SolveWarm(build(), warmCols)
	if err != nil {
		t.Fatal(err)
	}
	if warmSol.Status != Optimal || coldSol.Status != Optimal {
		t.Fatalf("status: warm %v cold %v", warmSol.Status, coldSol.Status)
	}
	if math.Abs(warmSol.Objective-coldSol.Objective) > 1e-9 {
		t.Fatalf("warm objective %v != cold %v", warmSol.Objective, coldSol.Objective)
	}
	if warmSol.Iters > coldSol.Iters {
		t.Fatalf("warm start took %d iters, cold %d — hint made it worse", warmSol.Iters, coldSol.Iters)
	}
}

// TestSolverOwnedBuffers documents the aliasing contract: the X slice
// of one solve is overwritten by the next.
func TestSolverOwnedBuffers(t *testing.T) {
	var s Solver
	p1 := NewProblem(1)
	p1.SetObjective(0, 1)
	p1.AddRow(5, Entry{0, 1})
	sol1, err := s.Solve(p1)
	if err != nil {
		t.Fatal(err)
	}
	x := sol1.X
	if x[0] != 5 {
		t.Fatalf("x = %v, want 5", x[0])
	}
	p2 := NewProblem(1)
	p2.SetObjective(0, 1)
	p2.AddRow(2, Entry{0, 1})
	if _, err := s.Solve(p2); err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Fatalf("buffer not reused: x = %v after second solve, want 2", x[0])
	}
}

func TestSolverEmptyProblem(t *testing.T) {
	var s Solver
	if _, err := s.Solve(nil); err == nil {
		t.Fatal("nil problem: want error")
	}
}

// TestSolverSteadyStateAllocs pins the arena promise: after warm-up,
// re-solving same-shape problems allocates nothing.
func TestSolverSteadyStateAllocs(t *testing.T) {
	var s Solver
	p := randomLE(rand.New(rand.NewSource(3)))
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Solve allocates %v per run, want 0", avg)
	}
}
