package core

import (
	"math"
	"testing"

	"repro/internal/bound"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/trace"
)

func buildProblem(t *testing.T, seed int64, tasks, drivers int, dm trace.DriverModel) *Problem {
	t.Helper()
	cfg := trace.NewConfig(seed, tasks, drivers, dm)
	tr := trace.NewGenerator(cfg).Generate(nil)
	p, err := NewProblem(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

func TestGreedySolverValidSolution(t *testing.T) {
	p := buildProblem(t, 1, 80, 12, trace.Hitchhiking)
	sol, err := GreedySolver{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Algorithm != "Greedy" {
		t.Errorf("Algorithm = %q", sol.Algorithm)
	}
	if sol.Profit <= 0 {
		t.Errorf("profit = %.3f, want > 0", sol.Profit)
	}
	if sol.Served == 0 || sol.Revenue <= 0 {
		t.Errorf("served=%d revenue=%.3f", sol.Served, sol.Revenue)
	}
	if err := p.CheckOffline(sol); err != nil {
		t.Errorf("CheckOffline: %v", err)
	}
}

func TestOnlineSolvers(t *testing.T) {
	p := buildProblem(t, 3, 100, 15, trace.Hitchhiking)
	for _, s := range []Solver{
		OnlineSolver{Dispatcher: online.Nearest{}, Seed: 1},
		OnlineSolver{Dispatcher: online.MaxMargin{}, Seed: 1},
		OnlineSolver{Dispatcher: online.MaxMargin{}, Seed: 1, ByValue: true},
	} {
		sol, err := s.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sol.Online == nil {
			t.Fatalf("%s: missing simulator result", s.Name())
		}
		if sol.Served != sol.Online.Served {
			t.Fatalf("%s: served mismatch", s.Name())
		}
		if err := p.CheckDisjoint(sol); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestOnlineSolverByValueName(t *testing.T) {
	s := OnlineSolver{Dispatcher: online.MaxMargin{}, ByValue: true}
	if got := s.Name(); got != "maxMargin(by-value)" {
		t.Errorf("Name() = %q", got)
	}
}

func TestGreedyBeatsOnlineHeuristics(t *testing.T) {
	// §VI-B: "our offline deterministic algorithm has the best
	// performance". Aggregate over seeds.
	var greedy, mm, nr float64
	for seed := int64(0); seed < 4; seed++ {
		p := buildProblem(t, seed, 100, 15, trace.Hitchhiking)
		g, err := GreedySolver{}.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := OnlineSolver{Dispatcher: online.MaxMargin{}, Seed: seed}.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		n, err := OnlineSolver{Dispatcher: online.Nearest{}, Seed: seed}.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		greedy += g.Profit
		mm += m.Profit
		nr += n.Profit
	}
	if greedy < mm || greedy < nr {
		t.Fatalf("greedy %.1f should dominate online heuristics (maxMargin %.1f, nearest %.1f)",
			greedy, mm, nr)
	}
}

func TestWelfareProblem(t *testing.T) {
	p := buildProblem(t, 5, 40, 8, trace.Hitchhiking)
	w := p.WelfareProblem()
	for i := range w.Tasks {
		if w.Tasks[i].Price != p.Tasks[i].WTP {
			t.Fatalf("task %d: welfare price %.3f != WTP %.3f", i, w.Tasks[i].Price, p.Tasks[i].WTP)
		}
		if p.Tasks[i].Price == p.Tasks[i].WTP {
			continue
		}
	}
	// Original problem untouched.
	if p.Tasks[0].Price == p.Tasks[0].WTP && p.Tasks[0].Surplus() != 0 {
		t.Fatal("WelfareProblem mutated the original")
	}
	// Solving the welfare view maximizes Eq. (6): profit there equals
	// welfare of the found assignment evaluated on the original.
	ws, err := GreedySolver{}.Solve(w)
	if err != nil {
		t.Fatal(err)
	}
	manual := ws.Profit // profit under b_m pricing
	// Recompute: profit under p_m + surplus of served tasks must equal
	// the welfare objective value for the same assignment.
	var surplus float64
	var profitOrig float64
	gOrig := p.Graph()
	for _, path := range ws.Paths {
		pr, err := gOrig.ValueOf(path)
		if err != nil {
			t.Fatal(err)
		}
		profitOrig += pr
		for _, task := range path.Tasks {
			surplus += p.Tasks[task].Surplus()
		}
	}
	if math.Abs(profitOrig+surplus-manual) > 1e-6 {
		t.Fatalf("welfare identity broken: profit %.6f + surplus %.6f != %.6f",
			profitOrig, surplus, manual)
	}
}

func TestSolutionWelfareAccessor(t *testing.T) {
	p := buildProblem(t, 6, 50, 8, trace.Hitchhiking)
	sol, err := GreedySolver{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	w := sol.Welfare(p)
	if w < sol.Profit-1e-9 {
		t.Fatalf("welfare %.6f below profit %.6f (surplus is non-negative)", w, sol.Profit)
	}
}

func TestCheckDisjointCatchesDuplicates(t *testing.T) {
	p := buildProblem(t, 7, 20, 4, trace.Hitchhiking)
	bad := Solution{Paths: []offline.Path{
		{Driver: 0, Tasks: []int{1, 2}},
		{Driver: 1, Tasks: []int{2}},
	}}
	if err := p.CheckDisjoint(bad); err == nil {
		t.Fatal("duplicate task assignment not caught")
	}
	bad2 := Solution{Paths: []offline.Path{
		{Driver: 0, Tasks: []int{1}},
		{Driver: 0, Tasks: []int{2}},
	}}
	if err := p.CheckDisjoint(bad2); err == nil {
		t.Fatal("duplicate driver not caught")
	}
	bad3 := Solution{Paths: []offline.Path{{Driver: 99, Tasks: []int{1}}}}
	if err := p.CheckDisjoint(bad3); err == nil {
		t.Fatal("out-of-range driver not caught")
	}
	bad4 := Solution{Paths: []offline.Path{{Driver: 0, Tasks: []int{999}}}}
	if err := p.CheckDisjoint(bad4); err == nil {
		t.Fatal("out-of-range task not caught")
	}
}

func TestCheckOfflineCatchesProfitLies(t *testing.T) {
	p := buildProblem(t, 8, 40, 8, trace.Hitchhiking)
	sol, err := GreedySolver{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Paths) == 0 {
		t.Skip("no paths selected")
	}
	sol.Paths[0].Profit += 5
	if err := p.CheckOffline(sol); err == nil {
		t.Fatal("inflated profit not caught")
	}
}

func TestPerformanceRatio(t *testing.T) {
	if got := PerformanceRatio(50, 100); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ratio = %g, want 0.5", got)
	}
	if got := PerformanceRatio(50, 0); got != 0 {
		t.Errorf("zero bound: %g, want 0", got)
	}
	if got := PerformanceRatio(-1, 100); got != 0 {
		t.Errorf("negative profit: %g, want 0", got)
	}
}

func TestPerformanceRatioAgainstExactBound(t *testing.T) {
	// Greedy's ratio against Z*_f must be within (0, 1].
	p := buildProblem(t, 9, 30, 6, trace.Hitchhiking)
	sol, err := GreedySolver{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	cg, _, err := bound.ColumnGeneration(p.Graph())
	if err != nil {
		t.Fatal(err)
	}
	r := PerformanceRatio(sol.Profit, cg.Bound)
	if r <= 0 || r > 1+1e-9 {
		t.Fatalf("ratio %.6f outside (0, 1]", r)
	}
}

func TestNewProblemRejectsInvalid(t *testing.T) {
	cfg := trace.NewConfig(1, 5, 2, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Tasks[0].Price = tr.Tasks[0].WTP + 1 // violates p ≤ b
	if _, err := NewProblem(cfg.Market, tr.Drivers, tr.Tasks); err == nil {
		t.Fatal("NewProblem accepted price > WTP")
	}
}

func TestGraphCached(t *testing.T) {
	p := buildProblem(t, 10, 20, 4, trace.Hitchhiking)
	if p.Graph() != p.Graph() {
		t.Fatal("Graph() should cache")
	}
}
