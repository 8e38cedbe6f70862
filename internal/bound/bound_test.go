package bound

import (
	"math"
	"testing"

	"repro/internal/offline"
	"repro/internal/trace"
)

func buildGraph(t *testing.T, seed int64, tasks, drivers int, dm trace.DriverModel) *Graph {
	t.Helper()
	cfg := trace.NewConfig(seed, tasks, drivers, dm)
	tr := trace.NewGenerator(cfg).Generate(nil)
	g, err := newGraph(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		t.Fatalf("newGraph: %v", err)
	}
	return g
}

// buildInstance compiles the day buildGraph maps densely.
func buildInstance(t *testing.T, seed int64, tasks, drivers int, dm trace.DriverModel) *offline.Instance {
	t.Helper()
	in, _ := compileFor(t, seed, tasks, drivers, dm)
	return in
}

func TestColumnGenerationDominatesExact(t *testing.T) {
	// Z*_f ≥ Z* on every instance (LP relaxation bound).
	for seed := int64(0); seed < 5; seed++ {
		in, g := compileFor(t, seed, 12, 3, trace.Hitchhiking)
		cg, _, err := ColumnGeneration(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exact, err := BruteForce(g, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cg.Bound < exact.Objective-1e-6 {
			t.Errorf("seed %d: Z*_f = %.6f below Z* = %.6f", seed, cg.Bound, exact.Objective)
		}
	}
}

func TestColumnGenerationTightWhenLPIntegral(t *testing.T) {
	// With a single driver the path polytope is integral: Z*_f == Z*.
	for seed := int64(0); seed < 5; seed++ {
		in, g := compileFor(t, seed, 10, 1, trace.Hitchhiking)
		cg, _, err := ColumnGeneration(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		best := g.BestPath(0, nil, nil)
		want := math.Max(0, best.Profit)
		if math.Abs(cg.Bound-want) > 1e-6 {
			t.Errorf("seed %d: single-driver Z*_f = %.6f, best path = %.6f", seed, cg.Bound, want)
		}
	}
}

// TestColumnGenerationReturnsNonNegativeDuals checks the task duals λ
// and pins Z*_f to the bit with the number of master rounds, on days of
// both driver models: a change to the master LP that moves one pivot
// moves one of these.
func TestColumnGenerationReturnsNonNegativeDuals(t *testing.T) {
	for _, tc := range []struct {
		seed           int64
		tasks, drivers int
		dm             trace.DriverModel
		bits           uint64
		iters          int
	}{
		{2, 20, 4, trace.Hitchhiking, 0x403103d7d3e6a6fe, 1},
		{0, 40, 8, trace.Hitchhiking, 0x4043759f3566aa0c, 25},
		// The pricing DP subtracts the dual after adding the value,
		// (cur + Value) − λ, which these bits depend on.
		{0, 40, 8, trace.HomeWorkHome, 0x404450cd855a1cba, 27},
	} {
		in := buildInstance(t, tc.seed, tc.tasks, tc.drivers, tc.dm)
		r, lambda, err := ColumnGeneration(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(r.Bound); got != tc.bits || r.Iters != tc.iters || r.Method != "colgen" {
			t.Errorf("%v seed %d: %s bound %v (%#x) in %d rounds, want colgen %v (%#x) in %d",
				tc.dm, tc.seed, r.Method, r.Bound, got, r.Iters, math.Float64frombits(tc.bits), tc.bits, tc.iters)
		}
		if len(lambda) != len(in.Tasks) {
			t.Fatalf("%v seed %d: lambda length %d, want %d", tc.dm, tc.seed, len(lambda), len(in.Tasks))
		}
		for j, l := range lambda {
			if l < 0 {
				t.Fatalf("%v seed %d: λ[%d] = %g < 0", tc.dm, tc.seed, j, l)
			}
		}
	}
}

func TestColumnGenerationEmptyInstance(t *testing.T) {
	in := buildInstance(t, 1, 5, 0, trace.Hitchhiking)
	r, _, err := ColumnGeneration(in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bound != 0 {
		t.Fatalf("bound %g for empty instance, want 0", r.Bound)
	}
}

func TestLagrangianDominatesColumnGeneration(t *testing.T) {
	// L(λ) ≥ Z*_f for every λ, so the subgradient bound can never fall
	// below the exact LP optimum.
	for seed := int64(0); seed < 4; seed++ {
		in := buildInstance(t, seed, 25, 5, trace.Hitchhiking)
		cg, _, err := ColumnGeneration(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		greedy := offline.Greedy(in).TotalProfit
		lag := Lagrangian(in, greedy, 150)
		if lag.Bound < cg.Bound-1e-6 {
			t.Errorf("seed %d: Lagrangian %.6f below Z*_f %.6f", seed, lag.Bound, cg.Bound)
		}
		// And it should be reasonably tight.
		if cg.Bound > 0 && lag.Bound > cg.Bound*1.25 {
			t.Errorf("seed %d: Lagrangian %.6f loose vs Z*_f %.6f", seed, lag.Bound, cg.Bound)
		}
	}
}

func TestLagrangianDominatesGreedy(t *testing.T) {
	in := buildInstance(t, 8, 60, 12, trace.HomeWorkHome)
	greedy := offline.Greedy(in).TotalProfit
	lag := Lagrangian(in, greedy, 80)
	if lag.Bound < greedy-1e-6 {
		t.Fatalf("upper bound %.6f below feasible profit %.6f", lag.Bound, greedy)
	}
}

func TestLagrangianMonotoneInIterations(t *testing.T) {
	// More iterations can only improve (lower) the best bound seen.
	in := buildInstance(t, 14, 40, 8, trace.Hitchhiking)
	lb := offline.Greedy(in).TotalProfit
	b1 := Lagrangian(in, lb, 5)
	b2 := Lagrangian(in, lb, 100)
	if b2.Bound > b1.Bound+1e-9 {
		t.Fatalf("100-iter bound %.6f worse than 5-iter bound %.6f", b2.Bound, b1.Bound)
	}
}

func TestAutoSelectsMethodBySize(t *testing.T) {
	small := buildInstance(t, 1, 15, 3, trace.Hitchhiking)
	if r, _ := Auto(small, 0, 120); r.Method != "colgen" {
		t.Errorf("small instance used %q, want colgen", r.Method)
	}
	big := buildInstance(t, 1, 200, 30, trace.Hitchhiking)
	if r, _ := Auto(big, 10, 120); r.Method != "lagrangian" {
		t.Errorf("large instance used %q, want lagrangian", r.Method)
	}
}

func TestGreedySandwichedByBounds(t *testing.T) {
	// Z* ≥ greedy and Z*_f ≥ Z*: the full ordering on one instance.
	in, g := compileFor(t, 6, 10, 3, trace.HomeWorkHome)
	greedy := offline.Greedy(in).TotalProfit
	exact, err := BruteForce(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	cg, _, err := ColumnGeneration(in)
	if err != nil {
		t.Fatal(err)
	}
	if greedy > exact.Objective+1e-6 {
		t.Errorf("greedy %.6f > Z* %.6f", greedy, exact.Objective)
	}
	if exact.Objective > cg.Bound+1e-6 {
		t.Errorf("Z* %.6f > Z*_f %.6f", exact.Objective, cg.Bound)
	}
}

func TestEnumeratePathsRespectsCap(t *testing.T) {
	g := buildGraph(t, 2, 30, 2, trace.Hitchhiking)
	if _, err := EnumeratePaths(g, 0, 1); err == nil {
		t.Skip("instance too sparse to exceed a 1-path cap") // acceptable
	}
}

// TestBruteForcePathsDisjoint: the optimum's paths are disjoint,
// profitable, priced as the task map prices them, and sum to the
// objective.
func TestBruteForcePathsDisjoint(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		g := buildGraph(t, seed, 9, 3, trace.Hitchhiking)
		exact, err := BruteForce(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		seen := make(map[int]bool)
		for _, p := range exact.Paths {
			for _, task := range p.Tasks {
				if seen[task] {
					t.Fatalf("seed %d: task %d on two optimal paths", seed, task)
				}
				seen[task] = true
			}
			if p.Profit <= 0 {
				t.Fatalf("seed %d: optimal solution contains non-positive path %.6f", seed, p.Profit)
			}
			profit, err := g.PathProfit(p.Driver, p.Tasks)
			if err != nil {
				t.Fatalf("seed %d: driver %d: %v", seed, p.Driver, err)
			}
			if profit != p.Profit {
				t.Fatalf("seed %d: driver %d: path priced %.9f, the task map prices it %.9f", seed, p.Driver, p.Profit, profit)
			}
			total += profit
		}
		if len(exact.Paths) == 0 {
			t.Fatalf("seed %d: empty optimum; the check is vacuous", seed)
		}
		if math.Abs(total-exact.Objective) > 1e-9 {
			t.Fatalf("seed %d: paths sum to %.9f, objective %.9f", seed, total, exact.Objective)
		}
	}
}
