package bound

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/model"
)

// lineMkt returns a deterministic market on a flat west-east line:
// 60 km/h (1 km/min) and 1 unit/km, so distances, times and costs are
// easy to compute by hand.
func lineMkt() model.Market {
	return model.Market{Dist: geo.Equirectangular, SpeedKmh: 60, GasPerKm: 1}
}

// at returns a point d kilometers east of a fixed origin.
func at(km float64) geo.Point {
	return geo.Offset(geo.Point{Lat: 41.15, Lon: -8.61}, math.Pi/2, km)
}

// minutes converts minutes to seconds.
func minutes(m float64) float64 { return m * 60 }

// simpleTask builds a zero-length task at location km with the given
// window, price p.
func simpleTask(id int, km, startBy, endBy, p float64) model.Task {
	return model.Task{
		ID: id, Publish: startBy - 1,
		Source: at(km), Dest: at(km),
		StartBy: startBy, EndBy: endBy,
		Price: p, WTP: p,
	}
}

func mustNew(t *testing.T, m model.Market, drivers []model.Driver, tasks []model.Task) *Graph {
	t.Helper()
	g, err := newGraph(m, drivers, tasks)
	if err != nil {
		t.Fatalf("newGraph: %v", err)
	}
	return g
}

func TestArcRequiresDeadheadTime(t *testing.T) {
	// Task 0 at km 0 ends at minute 10; task 1 at km 5 starts by minute
	// 12: deadhead needs 5 min > 2 min gap → no arc. Task 2 at km 5
	// starts by minute 20 → 10 min gap → arc.
	tasks := []model.Task{
		simpleTask(0, 0, minutes(5), minutes(10), 5),
		simpleTask(1, 5, minutes(12), minutes(16), 5),
		simpleTask(2, 5, minutes(20), minutes(24), 5),
	}
	drv := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(120)}}
	g := mustNew(t, lineMkt(), drv, tasks)
	if g.HasArc(0, 1) {
		t.Error("arc 0→1 should not exist: deadhead 5 min > gap 2 min")
	}
	if !g.HasArc(0, 2) {
		t.Error("arc 0→2 should exist: deadhead 5 min ≤ gap 10 min")
	}
	if g.HasArc(2, 0) {
		t.Error("arcs must not go backward in time")
	}
}

func TestServiceMustFitWindow(t *testing.T) {
	// Task from km 0 to km 10 takes 10 min; window of 5 min is
	// infeasible per Eq. (1), and the task gets no arcs at all.
	long := model.Task{
		ID: 0, Publish: 0, Source: at(0), Dest: at(10),
		StartBy: minutes(10), EndBy: minutes(15), Price: 100, WTP: 100,
	}
	later := simpleTask(1, 10, minutes(60), minutes(70), 5)
	drv := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	g := mustNew(t, lineMkt(), drv, []model.Task{long, later})
	if g.Feasible(0, 0) {
		t.Error("task 0 violates Eq. (1), should be infeasible")
	}
	if g.HasArc(0, 1) {
		t.Error("infeasible task must not grow arcs")
	}
	if !g.Feasible(0, 1) {
		t.Error("task 1 should be feasible")
	}
}

func TestDriverMustReachPickup(t *testing.T) {
	// Driver at km 0 from minute 0; task at km 30 starting by minute 10
	// needs 30 min of travel → unreachable.
	tasks := []model.Task{
		simpleTask(0, 30, minutes(10), minutes(20), 5),
		simpleTask(1, 30, minutes(40), minutes(50), 5),
	}
	drv := []model.Driver{{ID: 0, Source: at(0), Dest: at(30), Start: 0, End: minutes(240)}}
	g := mustNew(t, lineMkt(), drv, tasks)
	if g.SourceReachable(0, 0) {
		t.Error("task 0 pickup unreachable in 10 min from 30 km away")
	}
	if !g.SourceReachable(0, 1) {
		t.Error("task 1 pickup reachable in 40 min")
	}
}

func TestDriverMustReturnHome(t *testing.T) {
	// Driver must end at km 0 by minute 60. A task at km 30 ending at
	// minute 40 leaves only 20 min for a 30-min return → infeasible.
	tasks := []model.Task{
		simpleTask(0, 30, minutes(35), minutes(40), 5),
		simpleTask(1, 10, minutes(35), minutes(40), 5),
	}
	drv := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(60)}}
	g := mustNew(t, lineMkt(), drv, tasks)
	if g.Feasible(0, 0) {
		t.Error("task 0 violates the return-home clause")
	}
	if !g.Feasible(0, 1) {
		t.Error("task 1 leaves 20 min for a 10-min return, feasible")
	}
}

func TestPerDriverSpeedOverride(t *testing.T) {
	// A 120 km/h driver can serve a task a 60 km/h driver cannot reach
	// in time.
	tasks := []model.Task{simpleTask(0, 20, minutes(15), minutes(25), 5)}
	drivers := []model.Driver{
		{ID: 0, Source: at(0), Dest: at(20), Start: 0, End: minutes(240)},
		{ID: 1, Source: at(0), Dest: at(20), Start: 0, End: minutes(240), SpeedKmh: 120},
	}
	g := mustNew(t, lineMkt(), drivers, tasks)
	if g.SourceReachable(0, 0) {
		t.Error("60 km/h driver needs 20 min for 20 km, deadline is 15")
	}
	if !g.SourceReachable(1, 0) {
		t.Error("120 km/h driver covers 20 km in 10 min")
	}
}

func TestTopologicalOrderValid(t *testing.T) {
	g := randomGraph(t, 40, 6, 99)
	pos := make([]int, g.M())
	for i, m := range g.Order {
		pos[m] = i
	}
	for m := 0; m < g.M(); m++ {
		for _, p := range g.Preds[m] {
			if pos[p] >= pos[m] {
				t.Fatalf("pred %d not before %d in topological order", p, m)
			}
		}
	}
}

func TestArcsConsistentPredsSuccs(t *testing.T) {
	g := randomGraph(t, 40, 6, 7)
	count := 0
	for m := 0; m < g.M(); m++ {
		for _, s := range g.Succs[m] {
			count++
			found := false
			for _, p := range g.Preds[s] {
				if int(p) == m {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("succ arc %d→%d missing from preds", m, s)
			}
		}
	}
	if count != g.ArcCount() {
		t.Fatalf("ArcCount() = %d, succs total %d", g.ArcCount(), count)
	}
}

func TestBestPathMatchesBruteForceEnumeration(t *testing.T) {
	// On random small instances, the DP's best path must equal the best
	// over all enumerated paths for every driver.
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(t, 12, 4, seed)
		for n := 0; n < g.N(); n++ {
			want, path := bruteBest(g, n)
			got := g.BestPath(n, nil, nil)
			if math.Abs(got.Profit-want) > 1e-9 {
				t.Fatalf("seed %d driver %d: DP profit %.6f, brute force %.6f (path %v vs %v)",
					seed, n, got.Profit, want, got.Tasks, path)
			}
		}
	}
}

// bruteBest enumerates all paths for driver n by DFS and returns the max
// profit (0 for the empty path) and the argmax.
func bruteBest(g *Graph, n int) (float64, []int) {
	best := 0.0
	var bestPath []int
	var cur []int
	var dfs func(last int)
	dfs = func(last int) {
		profit, err := g.PathProfit(n, cur)
		if err == nil && profit > best {
			best = profit
			bestPath = append([]int(nil), cur...)
		}
		for _, s := range g.Succs[last] {
			if g.Feasible(n, int(s)) {
				cur = append(cur, int(s))
				dfs(int(s))
				cur = cur[:len(cur)-1]
			}
		}
	}
	for m := 0; m < g.M(); m++ {
		if g.Feasible(n, m) && g.SourceReachable(n, m) {
			cur = append(cur, m)
			dfs(m)
			cur = cur[:len(cur)-1]
		}
	}
	return best, bestPath
}

func TestBestPathProfitAgreesWithPathProfit(t *testing.T) {
	g := randomGraph(t, 50, 8, 3)
	for n := 0; n < g.N(); n++ {
		p := g.BestPath(n, nil, nil)
		if p.Len() == 0 {
			continue
		}
		profit, err := g.PathProfit(n, p.Tasks)
		if err != nil {
			t.Fatalf("driver %d: BestPath returned infeasible path: %v", n, err)
		}
		if math.Abs(profit-p.Profit) > 1e-9 {
			t.Fatalf("driver %d: DP profit %.9f, recomputed %.9f", n, p.Profit, profit)
		}
	}
}

func TestBestPathRespectsAliveMask(t *testing.T) {
	g := randomGraph(t, 30, 5, 21)
	for n := 0; n < g.N(); n++ {
		full := g.BestPath(n, nil, nil)
		if full.Len() == 0 {
			continue
		}
		// Kill the first task of the best path; the new best must avoid
		// it and cannot improve.
		alive := make([]bool, g.M())
		for i := range alive {
			alive[i] = true
		}
		alive[full.Tasks[0]] = false
		reduced := g.BestPath(n, alive, nil)
		for _, task := range reduced.Tasks {
			if task == full.Tasks[0] {
				t.Fatalf("driver %d: masked task %d still used", n, task)
			}
		}
		if reduced.Profit > full.Profit+1e-9 {
			t.Fatalf("driver %d: removing a node increased profit %.6f → %.6f",
				n, full.Profit, reduced.Profit)
		}
	}
}

func TestBestPathMonotoneUnderRemoval(t *testing.T) {
	// Property: profits never increase as tasks are removed one by one.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(nil, 20, 3, seed)
		alive := make([]bool, g.M())
		for i := range alive {
			alive[i] = true
		}
		prev := make([]float64, g.N())
		for n := range prev {
			prev[n] = g.BestPath(n, alive, nil).Profit
		}
		for k := 0; k < 10; k++ {
			alive[rng.Intn(g.M())] = false
			for n := 0; n < g.N(); n++ {
				cur := g.BestPath(n, alive, nil).Profit
				if cur > prev[n]+1e-9 {
					return false
				}
				prev[n] = cur
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBestPathDualAdjustment(t *testing.T) {
	// With adj = 0 the result matches no-adj; with huge adj everywhere,
	// no path is profitable.
	g := randomGraph(t, 25, 4, 13)
	zero := make([]float64, g.M())
	huge := make([]float64, g.M())
	for i := range huge {
		huge[i] = 1e9
	}
	for n := 0; n < g.N(); n++ {
		a := g.BestPath(n, nil, nil)
		b := g.BestPath(n, nil, zero)
		if math.Abs(a.Profit-b.Profit) > 1e-12 {
			t.Fatalf("driver %d: zero adjustment changed profit", n)
		}
		c := g.BestPath(n, nil, huge)
		if c.Len() != 0 {
			t.Fatalf("driver %d: huge duals should price out all paths", n)
		}
	}
}

func TestPathProfitRejectsBadSequences(t *testing.T) {
	tasks := []model.Task{
		simpleTask(0, 0, minutes(10), minutes(15), 5),
		simpleTask(1, 0, minutes(30), minutes(35), 5),
	}
	drv := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(120)}}
	g := mustNew(t, lineMkt(), drv, tasks)
	if _, err := g.PathProfit(0, []int{1, 0}); err == nil {
		t.Error("backward sequence should be rejected")
	}
	if _, err := g.PathProfit(0, []int{5}); err == nil {
		t.Error("out-of-range index should be rejected")
	}
	if _, err := g.PathProfit(0, []int{0, 1}); err != nil {
		t.Errorf("forward chain should be accepted: %v", err)
	}
	if p, err := g.PathProfit(0, nil); err != nil || p != 0 {
		t.Errorf("empty path: profit=%v err=%v, want 0, nil", p, err)
	}
}

func TestDiameterChain(t *testing.T) {
	// A strict chain of 5 tasks has diameter 5.
	var tasks []model.Task
	for i := 0; i < 5; i++ {
		start := minutes(float64(10 + 20*i))
		tasks = append(tasks, simpleTask(i, 0, start, start+minutes(5), 5))
	}
	drv := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(300)}}
	g := mustNew(t, lineMkt(), drv, tasks)
	if d := g.Diameter(); d != 5 {
		t.Fatalf("Diameter = %d, want 5", d)
	}
}

func TestDiameterNoFeasibleTasks(t *testing.T) {
	// One task far outside the driver's window: diameter 0.
	tasks := []model.Task{simpleTask(0, 0, minutes(1000), minutes(1005), 5)}
	drv := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(60)}}
	g := mustNew(t, lineMkt(), drv, tasks)
	if d := g.Diameter(); d != 0 {
		t.Fatalf("Diameter = %d, want 0", d)
	}
}

func TestNewRejectsInvalidInstance(t *testing.T) {
	bad := model.Task{ID: 0, Publish: 10, StartBy: 5, EndBy: 20,
		Source: at(0), Dest: at(0), Price: 1, WTP: 1}
	_, err := newGraph(lineMkt(), nil, []model.Task{bad})
	if err == nil {
		t.Fatal("newGraph should reject publish-after-start task")
	}
}

func TestBestPathPanicsOnBadDriver(t *testing.T) {
	g := randomGraph(t, 5, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("BestPath(-1) should panic")
		}
	}()
	g.BestPath(-1, nil, nil)
}

// randomGraph builds a reproducible random instance on the line. The
// *testing.T may be nil when called from quick.Check properties.
func randomGraph(t *testing.T, m, n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]model.Task, m)
	for i := range tasks {
		src := rng.Float64() * 15
		dst := rng.Float64() * 15
		startBy := minutes(10 + rng.Float64()*400)
		service := math.Abs(dst-src) + 1e-6
		endBy := startBy + minutes(service) + minutes(rng.Float64()*10)
		tasks[i] = model.Task{
			ID: i, Publish: startBy - minutes(5),
			Source: at(src), Dest: at(dst),
			StartBy: startBy, EndBy: endBy,
			Price: 1 + rng.Float64()*10,
		}
		tasks[i].WTP = tasks[i].Price * (1 + rng.Float64())
	}
	drivers := make([]model.Driver, n)
	for i := range drivers {
		start := minutes(rng.Float64() * 200)
		drivers[i] = model.Driver{
			ID:     i,
			Source: at(rng.Float64() * 15),
			Dest:   at(rng.Float64() * 15),
			Start:  start,
			End:    start + minutes(120+rng.Float64()*240),
		}
	}
	g, err := newGraph(lineMkt(), drivers, tasks)
	if err != nil {
		if t != nil {
			t.Fatalf("randomGraph: %v", err)
		}
		panic(err)
	}
	return g
}

func TestSlowDriverArcRecheck(t *testing.T) {
	// Two tasks 4 km apart with a 5-minute gap: feasible at the 60 km/h
	// market speed (4 min), infeasible for a 30 km/h driver (8 min).
	tasks := []model.Task{
		simpleTask(0, 0, minutes(10), minutes(15), 5),
		simpleTask(1, 4, minutes(20), minutes(25), 5),
	}
	drivers := []model.Driver{
		{ID: 0, Source: at(0), Dest: at(4), Start: 0, End: minutes(240)},
		{ID: 1, Source: at(0), Dest: at(4), Start: 0, End: minutes(240), SpeedKmh: 30},
	}
	g := mustNew(t, lineMkt(), drivers, tasks)
	if !g.HasArc(0, 1) {
		t.Fatal("shared arc 0→1 should exist at market speed")
	}
	// Market-speed driver can chain both tasks.
	fast := g.BestPath(0, nil, nil)
	if len(fast.Tasks) != 2 {
		t.Fatalf("market-speed driver path %v, want both tasks", fast.Tasks)
	}
	// The slow driver cannot use the arc: her best path has one task.
	slow := g.BestPath(1, nil, nil)
	if len(slow.Tasks) != 1 {
		t.Fatalf("slow driver path %v, want a single task", slow.Tasks)
	}
	// PathProfit agrees: the chain is rejected for the slow driver.
	if _, err := g.PathProfit(1, []int{0, 1}); err == nil {
		t.Fatal("PathProfit accepted a chain the slow driver cannot drive")
	}
	if _, err := g.PathProfit(0, []int{0, 1}); err != nil {
		t.Fatalf("PathProfit rejected a feasible market-speed chain: %v", err)
	}
}

func TestFastDriverKeepsSharedArcs(t *testing.T) {
	// A faster override must never lose arcs relative to market speed.
	tasks := []model.Task{
		simpleTask(0, 0, minutes(10), minutes(15), 5),
		simpleTask(1, 4, minutes(20), minutes(25), 5),
	}
	drivers := []model.Driver{
		{ID: 0, Source: at(0), Dest: at(4), Start: 0, End: minutes(240), SpeedKmh: 120},
	}
	g := mustNew(t, lineMkt(), drivers, tasks)
	if p := g.BestPath(0, nil, nil); len(p.Tasks) != 2 {
		t.Fatalf("fast driver path %v, want both tasks", p.Tasks)
	}
}

// TestSlowDriverDiameter: D counts only the arcs a driver can drive. A
// fleet of one 30 km/h driver over TestSlowDriverArcRecheck's two tasks
// can serve one of them, not the chain the market speed allows.
func TestSlowDriverDiameter(t *testing.T) {
	tasks := []model.Task{
		simpleTask(0, 0, minutes(10), minutes(15), 5),
		simpleTask(1, 4, minutes(20), minutes(25), 5),
	}
	slow := []model.Driver{{ID: 0, Source: at(0), Dest: at(4), Start: 0, End: minutes(240), SpeedKmh: 30}}
	if d := mustNew(t, lineMkt(), slow, tasks).Diameter(); d != 1 {
		t.Fatalf("slow driver's D = %d, want 1", d)
	}
	slow[0].SpeedKmh = 0
	if d := mustNew(t, lineMkt(), slow, tasks).Diameter(); d != 2 {
		t.Fatalf("market-speed driver's D = %d, want 2", d)
	}
}
