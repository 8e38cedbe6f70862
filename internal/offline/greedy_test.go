package offline_test

import (
	"math"
	"testing"

	"repro/internal/bound"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/offline"
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
	served := make(map[int]bool)
	for _, p := range sol.Paths {
		for _, task := range p.Tasks {
			served[task] = true
		}
	}
	if len(served) == 0 || len(served) != sol.ServedTasks() {
		t.Fatalf("paths serve %d distinct tasks, ServedTasks() = %d", len(served), sol.ServedTasks())
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

// lineDay is a market on a west-east line: 60 km/h, one unit a km, and
// at(km) the point km east of the origin.
func lineDay() (model.Market, func(km float64) geo.Point) {
	origin := geo.Point{Lat: 41.15, Lon: -8.61}
	return model.Market{Dist: geo.Equirectangular, SpeedKmh: 60, GasPerKm: 1},
		func(km float64) geo.Point { return geo.Offset(origin, math.Pi/2, km) }
}

// TestDiameterSlowDriver: D counts the arcs each driver can drive. Two
// tasks 4 km apart with a 5-minute gap chain at the 60 km/h market
// speed (4 minutes), but not for a fleet of one 30 km/h driver
// (8 minutes): her D is 1.
func TestDiameterSlowDriver(t *testing.T) {
	mkt, at := lineDay()
	tr := model.Trace{
		Drivers: []model.Driver{{ID: 0, Source: at(0), Dest: at(4), Start: 0, End: 14400, SpeedKmh: 30}},
		Tasks: []model.Task{
			{ID: 0, Source: at(0), Dest: at(0), StartBy: 600, EndBy: 900, Price: 5, WTP: 5},
			{ID: 1, Source: at(4), Dest: at(4), StartBy: 1200, EndBy: 1500, Price: 5, WTP: 5},
		},
	}
	for _, c := range []struct {
		speed float64
		want  int
	}{{30, 1}, {0, 2}} {
		tr.Drivers[0].SpeedKmh = c.speed
		in, err := offline.Compile(mkt, tr, offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := in.Diameter(); got != c.want {
			t.Errorf("driver at %g km/h: D = %d, want %d", c.speed, got, c.want)
		}
		if got := in.SharedArcs(); got != 1 {
			t.Errorf("driver at %g km/h: %d shared arcs, want 1", c.speed, got)
		}
	}
}
