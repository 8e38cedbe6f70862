package offline_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/offline"
	"repro/internal/taskmap"
	"repro/internal/trace"
)

// The dense task map (internal/taskmap) is the oracle of this file: the
// compiled instance's pairs, arcs and path values, and the greedy run on
// it, are held to the dense map's bitwise.

// speedDay generates an event-free day and gives every other driver the
// speed override factor × the market speed (none when factor is 0). A
// day with overrides gets windows 2.5–5 times the service time: at the
// default 1–1.1 a driver at 0.9× the market speed serves almost no
// task, and no arc of hers is ever re-checked.
func speedDay(seed int64, tasks, drivers int, dm trace.DriverModel, factor float64) (model.Market, model.Trace) {
	cfg := trace.NewConfig(seed, tasks, drivers, dm)
	if factor > 0 {
		cfg.SlackMin, cfg.SlackMax = 2.5, 5
	}
	tr := trace.NewGenerator(cfg).Generate(nil)
	if factor > 0 {
		for n := 1; n < len(tr.Drivers); n += 2 {
			tr.Drivers[n].SpeedKmh = factor * cfg.Market.SpeedKmh
		}
	}
	return cfg.Market, tr
}

// TestCompileNoEventTaskmapParity holds the compiler to the dense
// reference: on an event-free trace the compiled instance must be the
// taskmap restricted to path-relevant pairs, bitwise — same srcOK set,
// same costs, same arcs, same path values. Drivers slower than the
// market have the arcs they can drive (DriverArc), faster ones the
// shared arcs.
func TestCompileNoEventTaskmapParity(t *testing.T) {
	seeds := []int64{3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		for _, dm := range []trace.DriverModel{trace.Hitchhiking, trace.HomeWorkHome} {
			for _, factor := range []float64{0, 0.5, 1.5} {
				mkt, tr := speedDay(seed, 40, 12, dm, factor)
				in, err := offline.Compile(mkt, tr, offline.Options{})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				g, err := taskmap.New(mkt, tr.Drivers, tr.Tasks)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				checkParity(t, seed, mkt, tr, in, g)
				checkPathValues(t, in, g, 2000)
				if got, want := in.Diameter(), g.Diameter(); got != want {
					t.Fatalf("seed %d ×%g: Diameter %d, dense %d", seed, factor, got, want)
				}
			}
		}
	}
}

func checkParity(t *testing.T, seed int64, mkt model.Market, tr model.Trace, in *offline.Instance, g *taskmap.Graph) {
	t.Helper()
	kept := make(map[[2]int]bool)
	for d := 0; d < in.NDrv(); d++ {
		orig := in.DrvID[d]
		if in.Baseline[d] != g.Baseline[orig] {
			t.Fatalf("seed %d: baseline driver %d = %v, want %v", seed, orig, in.Baseline[d], g.Baseline[orig])
		}
		for s := in.DrvPtr[d]; s < in.DrvPtr[d+1]; s++ {
			m := int(in.DrvTask[s])
			kept[[2]int{orig, m}] = true
			if !g.Feasible(orig, m) {
				t.Fatalf("seed %d: kept pair (%d,%d) infeasible in taskmap", seed, orig, m)
			}
			if in.DrvSrcOK[s] != g.SourceReachable(orig, m) {
				t.Fatalf("seed %d: srcOK (%d,%d) = %v, taskmap %v", seed, orig, m, in.DrvSrcOK[s], g.SourceReachable(orig, m))
			}
			if in.DrvSrcCost[s] != g.SourceCost(orig, m) || in.DrvSnkCost[s] != g.SinkCost(orig, m) {
				t.Fatalf("seed %d: costs (%d,%d) = (%v,%v), taskmap (%v,%v)",
					seed, orig, m, in.DrvSrcCost[s], in.DrvSnkCost[s], g.SourceCost(orig, m), g.SinkCost(orig, m))
			}
		}
	}
	// Dropped feasible pairs must be provably path-irrelevant.
	for n := range tr.Drivers {
		for m := range tr.Tasks {
			if g.Feasible(n, m) && !kept[[2]int{n, m}] {
				if tr.Drivers[n].Start <= tr.Tasks[m].StartBy+2e-9 {
					t.Fatalf("seed %d: feasible pair (%d,%d) dropped without prefilter cover", seed, n, m)
				}
			}
		}
	}
	// Arc sets agree on the kept subset, costs bitwise.
	for d := 0; d < in.NDrv(); d++ {
		for si := in.DrvPtr[d]; si < in.DrvPtr[d+1]; si++ {
			for sj := in.DrvPtr[d]; sj < in.DrvPtr[d+1]; sj++ {
				a, b := int(in.DrvTask[si]), int(in.DrvTask[sj])
				if a == b {
					continue
				}
				k := in.SuccIndex(si, sj)
				if want := g.DriverArc(in.DrvID[d], a, b); (k >= 0) != want {
					t.Fatalf("seed %d: arc %d→%d driver %d: compiled %v, taskmap %v", seed, a, b, in.DrvID[d], k >= 0, want)
				}
				if k >= 0 {
					want := mkt.DeadheadCost(tr.Tasks[a], tr.Tasks[b])
					if in.ArcCost[k] != want {
						t.Fatalf("seed %d: arc cost %d→%d = %v, want %v", seed, a, b, in.ArcCost[k], want)
					}
				}
			}
		}
	}
	if got, want := in.SharedArcs(), g.ArcCount(); got != want {
		t.Fatalf("seed %d: %d shared arcs, dense %d", seed, got, want)
	}
}

// checkPathValues DFS-enumerates up to cap paths per instance and
// compares PathValue against taskmap.PathProfit bitwise.
func checkPathValues(t *testing.T, in *offline.Instance, g *taskmap.Graph, cap int) {
	t.Helper()
	count := 0
	var slots []int32
	var tasks []int
	var dfs func(d, last int)
	dfs = func(d, last int) {
		if count >= cap {
			return
		}
		count++
		got, err := in.PathValue(d, slots)
		if err != nil {
			t.Fatalf("PathValue(%d, %v): %v", d, tasks, err)
		}
		want, err := g.PathProfit(in.DrvID[d], tasks)
		if err != nil {
			t.Fatalf("PathProfit(%d, %v): %v", in.DrvID[d], tasks, err)
		}
		if got != want {
			t.Fatalf("driver %d path %v: PathValue %v, PathProfit %v", in.DrvID[d], tasks, got, want)
		}
		if v, err := in.ValueOf(offline.Path{Driver: in.DrvID[d], Tasks: tasks}); err != nil || v != want {
			t.Fatalf("driver %d path %v: ValueOf %v (%v), PathProfit %v", in.DrvID[d], tasks, v, err, want)
		}
		for _, k := range in.DrvSucc[in.DrvSuccPtr[last]:in.DrvSuccPtr[last+1]] {
			s := in.Slot(d, int(in.ArcTo[k]))
			slots = append(slots, int32(s))
			tasks = append(tasks, int(in.DrvTask[s]))
			dfs(d, s)
			slots = slots[:len(slots)-1]
			tasks = tasks[:len(tasks)-1]
		}
	}
	for d := 0; d < in.NDrv(); d++ {
		for s := in.DrvPtr[d]; s < in.DrvPtr[d+1]; s++ {
			if !in.DrvSrcOK[s] {
				continue
			}
			slots = append(slots, int32(s))
			tasks = append(tasks, int(in.DrvTask[s]))
			dfs(d, s)
			slots = slots[:0]
			tasks = tasks[:0]
		}
	}
	if count == 0 {
		t.Fatal("no paths enumerated — degenerate instance")
	}
}

type denseItem struct {
	path    offline.Path
	version int
}

func denseFirst(a, b denseItem) bool { return a.path.Profit > b.path.Profit }

// denseGreedy is Algorithm 1 with lazy re-evaluation, as offline.Greedy
// runs it, on the dense task map.
func denseGreedy(g *taskmap.Graph) offline.Solution {
	alive := make([]bool, g.M())
	for i := range alive {
		alive[i] = true
	}
	var sol offline.Solution
	h := make([]denseItem, 0, g.N())
	version := 0
	for n := 0; n < g.N(); n++ {
		p := g.BestPath(n, alive, nil)
		sol.Recomputes++
		if p.Len() > 0 && p.Profit > 0 {
			h = append(h, denseItem{path: p, version: version})
		}
	}
	heap.Init(h, denseFirst)
	for len(h) > 0 {
		it := heap.Pop(&h, denseFirst)
		stale := false
		for _, t := range it.path.Tasks {
			stale = stale || !alive[t]
		}
		if it.version != version && stale {
			p := g.BestPath(it.path.Driver, alive, nil)
			sol.Recomputes++
			if p.Len() > 0 && p.Profit > 0 {
				heap.Push(&h, denseItem{path: p, version: version}, denseFirst)
			}
			continue
		}
		sol.Paths = append(sol.Paths, it.path)
		sol.TotalProfit += it.path.Profit
		sol.Iterations++
		for _, t := range it.path.Tasks {
			alive[t] = false
		}
		version++
	}
	return sol
}

// denseGreedyNaive is the textbook O(N²M²) Algorithm 1: every iteration
// recomputes the best path of every remaining driver and picks the
// maximum, ties to the lower driver.
func denseGreedyNaive(g *taskmap.Graph) offline.Solution {
	alive := make([]bool, g.M())
	for i := range alive {
		alive[i] = true
	}
	usedDriver := make([]bool, g.N())
	var sol offline.Solution
	for {
		best := offline.Path{}
		found := false
		for n := 0; n < g.N(); n++ {
			if usedDriver[n] {
				continue
			}
			p := g.BestPath(n, alive, nil)
			sol.Recomputes++
			if p.Len() == 0 || p.Profit <= 0 {
				continue
			}
			if !found || p.Profit > best.Profit {
				best = p
				found = true
			}
		}
		if !found {
			return sol
		}
		sol.Paths = append(sol.Paths, best)
		sol.TotalProfit += best.Profit
		sol.Iterations++
		usedDriver[best.Driver] = true
		for _, t := range best.Tasks {
			alive[t] = false
		}
	}
}

// TestGreedyMatchesDenseOracle holds Greedy on the compiled instance to
// the greedy on the dense map, lazy and naive, on random days with
// drivers at the market speed, slower and faster: the same paths in
// the same order, the same TotalProfit and Iterations, to the bit.
func TestGreedyMatchesDenseOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, dm := range []trace.DriverModel{trace.Hitchhiking, trace.HomeWorkHome} {
			for _, factor := range []float64{0, 0.6, 1.5} {
				mkt, tr := speedDay(seed, 30+10*int(seed), 4+2*int(seed), dm, factor)
				in, err := offline.Compile(mkt, tr, offline.Options{})
				if err != nil {
					t.Fatal(err)
				}
				g, err := taskmap.New(mkt, tr.Drivers, tr.Tasks)
				if err != nil {
					t.Fatal(err)
				}
				got, lazy, naive := offline.Greedy(in), denseGreedy(g), denseGreedyNaive(g)
				if !reflect.DeepEqual(got.Paths, lazy.Paths) {
					t.Fatalf("seed %d %v ×%g: paths\n%v\nwant\n%v", seed, dm, factor, got.Paths, lazy.Paths)
				}
				for _, want := range []offline.Solution{lazy, naive} {
					if math.Float64bits(got.TotalProfit) != math.Float64bits(want.TotalProfit) || got.Iterations != want.Iterations {
						t.Fatalf("seed %d %v ×%g: profit %v in %d selections, want %v in %d",
							seed, dm, factor, got.TotalProfit, got.Iterations, want.TotalProfit, want.Iterations)
					}
				}
				if got.Recomputes > naive.Recomputes {
					t.Fatalf("seed %d %v ×%g: lazy greedy ran %d DPs, naive %d", seed, dm, factor, got.Recomputes, naive.Recomputes)
				}
			}
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

// TestGreedyTieTakesEarlierEnd pins the DP's tie rule. One driver can
// serve either of two tasks at the same spot, not both, and either
// closes her path at exactly the same value. The DP keeps the end
// earlier in topological order — task 1, whose pickup deadline comes
// first — where the dense map keeps the lower task index.
func TestGreedyTieTakesEarlierEnd(t *testing.T) {
	mkt, at := lineDay()
	task := func(id int, startBy, endBy float64) model.Task {
		return model.Task{ID: id, Source: at(2), Dest: at(2), StartBy: startBy, EndBy: endBy, Price: 5, WTP: 5}
	}
	tr := model.Trace{
		Drivers: []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: 10000}},
		Tasks:   []model.Task{task(0, 3000, 3600), task(1, 2000, 3500)},
	}
	in, err := offline.Compile(mkt, tr, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := taskmap.New(mkt, tr.Drivers, tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	got, dense := offline.Greedy(in), denseGreedy(g)
	if len(got.Paths) != 1 || !reflect.DeepEqual(got.Paths[0].Tasks, []int{1}) {
		t.Fatalf("greedy paths %v, want task 1 alone", got.Paths)
	}
	if len(dense.Paths) != 1 || !reflect.DeepEqual(dense.Paths[0].Tasks, []int{0}) {
		t.Fatalf("dense greedy paths %v, want task 0 alone", dense.Paths)
	}
	if math.Float64bits(got.TotalProfit) != math.Float64bits(dense.TotalProfit) {
		t.Fatalf("tied paths priced %v and %v", got.TotalProfit, dense.TotalProfit)
	}
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
