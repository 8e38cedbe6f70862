// Cross-module integration tests: each test drives the full pipeline
// (trace generation → problem → task map → solvers → bounds) and checks
// invariants that only hold if the modules agree with each other.
package repro_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

func buildProblem(t *testing.T, seed int64, tasks, drivers int, dm trace.DriverModel) *core.Problem {
	t.Helper()
	cfg := trace.NewConfig(seed, tasks, drivers, dm)
	tr := trace.NewGenerator(cfg).Generate(nil)
	p, err := core.NewProblem(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOnlineSolutionsAreOfflineFeasible is the central consistency
// invariant between the simulator and the task-map model: under
// deadline-based availability (the paper's Algorithms 3–4), every path
// an online dispatcher builds must be a feasible path of the offline
// task map, with the simulator's per-driver profit equal to the
// task map's ground-truth path valuation.
func TestOnlineSolutionsAreOfflineFeasible(t *testing.T) {
	for _, dm := range []trace.DriverModel{trace.Hitchhiking, trace.HomeWorkHome} {
		p := buildProblem(t, 3, 150, 25, dm)
		g := p.Graph()
		eng, err := sim.New(p.Market, p.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []sim.Dispatcher{online.Nearest{}, online.MaxMargin{}, online.Random{}} {
			res := eng.RunScenario(p.Tasks, nil, d)
			for n, tasks := range res.DriverPaths {
				if len(tasks) == 0 {
					continue
				}
				profit, err := g.ValueOf(offline.Path{Driver: n, Tasks: tasks})
				if err != nil {
					t.Fatalf("%v/%s: driver %d path %v infeasible offline: %v",
						dm, d.Name(), n, tasks, err)
				}
				if math.Abs(profit-res.PerDriverProfit[n]) > 1e-6 {
					t.Fatalf("%v/%s: driver %d sim profit %.9f != task-map profit %.9f",
						dm, d.Name(), n, res.PerDriverProfit[n], profit)
				}
			}
		}
	}
}

// TestBatchedSolutionsAreOfflineFeasible extends the same invariant to
// the batched matching dispatcher.
func TestBatchedSolutionsAreOfflineFeasible(t *testing.T) {
	p := buildProblem(t, 5, 150, 25, trace.Hitchhiking)
	g := p.Graph()
	eng, err := sim.New(p.Market, p.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunBatchedScenario(p.Tasks, nil, 45)
	for n, tasks := range res.DriverPaths {
		if len(tasks) == 0 {
			continue
		}
		profit, err := g.ValueOf(offline.Path{Driver: n, Tasks: tasks})
		if err != nil {
			t.Fatalf("driver %d path %v infeasible offline: %v", n, tasks, err)
		}
		if math.Abs(profit-res.PerDriverProfit[n]) > 1e-6 {
			t.Fatalf("driver %d profit mismatch", n)
		}
	}
}

// TestEverythingBelowTheBound: the LP-relaxation bound dominates every
// algorithm in the framework, offline and online, on both models.
func TestEverythingBelowTheBound(t *testing.T) {
	for _, dm := range []trace.DriverModel{trace.Hitchhiking, trace.HomeWorkHome} {
		p := buildProblem(t, 7, 120, 20, dm)
		g := p.Graph()
		greedy := offline.Greedy(g).TotalProfit
		ub := bound.Lagrangian(g, greedy, 150)

		eng, err := sim.New(p.Market, p.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		profits := map[string]float64{
			"greedy":    greedy,
			"nearest":   eng.RunScenario(p.Tasks, nil, online.Nearest{}).TotalProfit,
			"maxmargin": eng.RunScenario(p.Tasks, nil, online.MaxMargin{}).TotalProfit,
			"batched":   eng.RunBatchedScenario(p.Tasks, nil, 45).TotalProfit,
			"replan":    eng.RunReplanScenario(p.Tasks, nil, 60).TotalProfit,
		}
		for name, profit := range profits {
			if profit > ub.Bound+1e-6 {
				t.Errorf("%v: %s profit %.6f exceeds upper bound %.6f", dm, name, profit, ub.Bound)
			}
		}
	}
}

// TestBatchedBeatsInstantOnBatchableMarkets: with enough notice, batch
// matching should not lose to per-task greedy assignment on aggregate.
func TestBatchedVersusInstantTradeoff(t *testing.T) {
	// With generous pickup notice, batching delay is harmless and
	// global matching helps; with street-hail notice (the default), the
	// delay costs urgent tasks. Both directions are the documented
	// response-time tradeoff.
	cfg := trace.NewConfig(11, 200, 30, trace.Hitchhiking)
	cfg.PickupWindowMin = 10 * 60
	cfg.PickupWindowMax = 20 * 60
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	instant := eng.RunScenario(tr.Tasks, nil, online.MaxMargin{})
	batched := eng.RunBatchedScenario(tr.Tasks, nil, 60)
	if batched.TotalProfit < instant.TotalProfit*0.9 {
		t.Fatalf("with 10-20 min notice, batched profit %.2f fell far below instant %.2f",
			batched.TotalProfit, instant.TotalProfit)
	}
}

// TestRoadNetworkMarketPipeline runs the full stack over network
// distances instead of crow-fly.
func TestRoadNetworkMarketPipeline(t *testing.T) {
	g, err := roadnet.GenerateGrid(roadnet.DefaultGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	router := roadnet.NewRouter(g, geo.PortoBox, 10)
	cfg := trace.NewConfig(13, 80, 15, trace.Hitchhiking)
	cfg.Market.Dist = router.Dist
	tr := trace.NewGenerator(cfg).Generate(nil)

	p, err := core.NewProblem(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.GreedySolver{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Served == 0 {
		t.Fatal("road-network market served nothing")
	}
	if err := p.CheckOffline(sol); err != nil {
		t.Fatal(err)
	}
	// Network distances dominate straight-line: every task's service
	// cost under the router is ≥ the crow-fly cost (minus snap slack).
	for _, tk := range p.Tasks[:20] {
		road := router.Dist(tk.Source, tk.Dest)
		crow := geo.Equirectangular(tk.Source, tk.Dest)
		if crow > 2 && road < crow*0.8 {
			t.Fatalf("road distance %.3f below crow-fly %.3f", road, crow)
		}
	}
}

// TestTraceRoundTripPreservesResults: serializing a trace to JSON and
// back must not change any algorithm's output.
func TestTraceRoundTripPreservesResults(t *testing.T) {
	cfg := trace.NewConfig(17, 100, 15, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)

	var buf bytes.Buffer
	if err := model.WriteTraceJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := model.ReadTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	p1, err := core.NewProblem(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := core.NewProblem(cfg.Market, tr2.Drivers, tr2.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.GreedySolver{}.Solve(p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.GreedySolver{}.Solve(p2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Profit-s2.Profit) > 1e-9 || s1.Served != s2.Served {
		t.Fatalf("round trip changed results: %.6f/%d vs %.6f/%d",
			s1.Profit, s1.Served, s2.Profit, s2.Served)
	}
}

// TestFullDeterminism: identical seeds give identical end-to-end
// results, across every solver.
func TestFullDeterminism(t *testing.T) {
	run := func() []float64 {
		p := buildProblem(t, 23, 120, 20, trace.HomeWorkHome)
		eng, err := sim.New(p.Market, p.Drivers, 9)
		if err != nil {
			t.Fatal(err)
		}
		return []float64{
			offline.Greedy(p.Graph()).TotalProfit,
			eng.RunScenario(p.Tasks, nil, online.Nearest{}).TotalProfit,
			eng.RunScenario(p.Tasks, nil, online.MaxMargin{}).TotalProfit,
			eng.RunBatchedScenario(p.Tasks, nil, 30).TotalProfit,
			bound.Lagrangian(p.Graph(), 0, 30).Bound,
		}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs across identical runs: %.9f vs %.9f", i, a[i], b[i])
		}
	}
}

// TestWelfareDominatesProfitObjective: solving the welfare view yields
// at least as much welfare as solving the profit view, when both use
// the exact small-scale solver.
func TestWelfareDominatesProfitObjective(t *testing.T) {
	p := buildProblem(t, 29, 10, 3, trace.Hitchhiking)
	w := p.WelfareProblem()

	exact := func(in *offline.Instance) bound.SparseSolution {
		var s bound.SparseSolver
		sol, err := s.Solve(in, bound.SparseOptions{})
		if err != nil || !sol.Exact {
			t.Fatalf("exact solve: %v (exact %v)", err, sol.Exact)
		}
		return sol
	}
	profitOpt, welfareOpt := exact(p.Graph()), exact(w.Graph())
	// Welfare of the profit-optimal assignment ≤ welfare optimum.
	var welfareOfProfitOpt float64
	wg := w.Graph()
	for _, path := range profitOpt.Paths {
		pw, err := wg.ValueOf(path)
		if err != nil {
			t.Fatalf("profit-optimal path infeasible in welfare view: %v", err)
		}
		welfareOfProfitOpt += pw
	}
	if welfareOfProfitOpt > welfareOpt.Objective+1e-6 {
		t.Fatalf("welfare view not optimal: %.6f > %.6f", welfareOfProfitOpt, welfareOpt.Objective)
	}
}
