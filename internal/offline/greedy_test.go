package offline_test

import (
	"math"
	"testing"

	"repro/internal/bound"
	"repro/internal/offline"
	"repro/internal/taskmap"
	"repro/internal/trace"
)

func buildGraph(t *testing.T, seed int64, tasks, drivers int, dm trace.DriverModel) *offline.Instance {
	t.Helper()
	cfg := trace.NewConfig(seed, tasks, drivers, dm)
	tr := trace.NewGenerator(cfg).Generate(nil)
	in, err := offline.Compile(cfg.Market, tr, offline.Options{})
	if err != nil {
		t.Fatalf("offline.Compile: %v", err)
	}
	return in
}

// denseGraph builds the dense oracle of the day buildGraph compiles.
func denseGraph(t *testing.T, in *offline.Instance) *taskmap.Graph {
	t.Helper()
	g, err := taskmap.New(in.Market, in.Drivers, in.Tasks)
	if err != nil {
		t.Fatalf("taskmap.New: %v", err)
	}
	return g
}

func TestGreedyMatchesNaive(t *testing.T) {
	// The lazy-heap greedy must earn exactly the naive GA's total on a
	// spread of instances (the selection sequences coincide up to
	// equal-profit ties, which cannot change the total). The naive GA
	// runs on the dense oracle.
	for _, tc := range []struct {
		seed           int64
		tasks, drivers int
		dm             trace.DriverModel
	}{
		{1, 30, 5, trace.Hitchhiking},
		{2, 60, 10, trace.Hitchhiking},
		{3, 60, 10, trace.HomeWorkHome},
		{4, 100, 15, trace.Hitchhiking},
		{5, 100, 25, trace.HomeWorkHome},
	} {
		g := buildGraph(t, tc.seed, tc.tasks, tc.drivers, tc.dm)
		lazy := offline.Greedy(g)
		naive := denseGreedyNaive(denseGraph(t, g))
		if math.Abs(lazy.TotalProfit-naive.TotalProfit) > 1e-6 {
			t.Errorf("seed %d: lazy %.6f != naive %.6f", tc.seed, lazy.TotalProfit, naive.TotalProfit)
		}
		if lazy.Iterations != naive.Iterations {
			t.Errorf("seed %d: lazy %d iterations, naive %d", tc.seed, lazy.Iterations, naive.Iterations)
		}
		if lazy.Recomputes > naive.Recomputes {
			t.Errorf("seed %d: lazy evaluation did more DP work (%d) than naive (%d)",
				tc.seed, lazy.Recomputes, naive.Recomputes)
		}
	}
}

func TestGreedySolutionFeasible(t *testing.T) {
	g := buildGraph(t, 7, 120, 20, trace.Hitchhiking)
	sol := offline.Greedy(g)

	usedDriver := make(map[int]bool)
	usedTask := make(map[int]bool)
	var total float64
	for _, p := range sol.Paths {
		if usedDriver[p.Driver] {
			t.Fatalf("driver %d selected twice", p.Driver)
		}
		usedDriver[p.Driver] = true
		for _, task := range p.Tasks {
			if usedTask[task] {
				t.Fatalf("task %d on two paths (node-disjointness violated)", task)
			}
			usedTask[task] = true
		}
		profit, err := g.ValueOf(p)
		if err != nil {
			t.Fatalf("driver %d: infeasible path: %v", p.Driver, err)
		}
		if math.Abs(profit-p.Profit) > 1e-6 {
			t.Fatalf("driver %d: declared %.6f, recomputed %.6f", p.Driver, p.Profit, profit)
		}
		if p.Profit <= 0 {
			t.Fatalf("driver %d: non-positive profit %.6f selected", p.Driver, p.Profit)
		}
		total += profit
	}
	if math.Abs(total-sol.TotalProfit) > 1e-6 {
		t.Fatalf("TotalProfit %.6f != sum of paths %.6f", sol.TotalProfit, total)
	}
}

func TestGreedySelectionsDecrease(t *testing.T) {
	// GA picks the global maximum each round, so selected profits are
	// non-increasing in selection order.
	g := buildGraph(t, 9, 80, 12, trace.Hitchhiking)
	sol := offline.Greedy(g)
	for i := 1; i < len(sol.Paths); i++ {
		if sol.Paths[i].Profit > sol.Paths[i-1].Profit+1e-9 {
			t.Fatalf("selection %d (%.6f) exceeds selection %d (%.6f)",
				i, sol.Paths[i].Profit, i-1, sol.Paths[i-1].Profit)
		}
	}
}

func TestGreedyWithinApproximationBound(t *testing.T) {
	// Theorem 1: GA ≥ OPT/(D+1). Check against the exact optimum on
	// tiny instances.
	for seed := int64(0); seed < 6; seed++ {
		g := buildGraph(t, seed, 10, 3, trace.Hitchhiking)
		sol := offline.Greedy(g)
		var s bound.SparseSolver
		exact, err := s.Solve(g, bound.SparseOptions{})
		if err != nil || !exact.Exact {
			t.Fatalf("seed %d: exact solve: %v (exact %v)", seed, err, exact.Exact)
		}
		if sol.TotalProfit > exact.Objective+1e-6 {
			t.Fatalf("seed %d: greedy %.6f exceeds optimum %.6f", seed, sol.TotalProfit, exact.Objective)
		}
		d := g.Diameter()
		if exact.Objective > 0 && sol.TotalProfit < exact.Objective/float64(d+1)-1e-6 {
			t.Fatalf("seed %d: greedy %.6f below OPT/(D+1) = %.6f (D=%d)",
				seed, sol.TotalProfit, exact.Objective/float64(d+1), d)
		}
	}
}

func TestGreedyEmptyInstances(t *testing.T) {
	g := buildGraph(t, 3, 10, 0, trace.Hitchhiking)
	if sol := offline.Greedy(g); sol.TotalProfit != 0 || len(sol.Paths) != 0 {
		t.Errorf("no drivers: got profit %.3f, %d paths", sol.TotalProfit, len(sol.Paths))
	}
}

func TestGreedyAssignmentHelpers(t *testing.T) {
	g := buildGraph(t, 5, 50, 8, trace.Hitchhiking)
	sol := offline.Greedy(g)
	asg := sol.Assignment()
	if len(asg) != sol.ServedTasks() {
		t.Fatalf("Assignment() has %d tasks, ServedTasks() = %d", len(asg), sol.ServedTasks())
	}
	for _, p := range sol.Paths {
		for _, task := range p.Tasks {
			if asg[task] != p.Driver {
				t.Fatalf("task %d mapped to driver %d, want %d", task, asg[task], p.Driver)
			}
		}
	}
}

func TestGreedyDominatesSingleBestPath(t *testing.T) {
	// GA's first pick is the globally best path, so its total is at
	// least any single driver's best.
	g := buildGraph(t, 11, 60, 10, trace.HomeWorkHome)
	sol := offline.Greedy(g)
	var dp offline.PathDP
	dp.Reset(g)
	for d := 0; d < g.NDrv(); d++ {
		if v, _ := dp.Best(g, d, nil); v > sol.TotalProfit+1e-9 {
			t.Fatalf("driver %d best path %.6f exceeds greedy total %.6f", g.DrvID[d], v, sol.TotalProfit)
		}
	}
}
