// Benchmarks regenerating the paper's evaluation (§VI), one per figure,
// plus micro-benchmarks of the framework's building blocks and ablation
// benches for the design choices called out in DESIGN.md.
//
// Figure benches report their headline series values through
// b.ReportMetric (custom units), so `go test -bench=. -benchmem` prints
// the reproduced numbers alongside timing. Benchmark scale follows
// experiments.Default() — the paper's sweep scaled to benchmark time;
// run `rideshare experiments -scale paper` for full-scale series.
package repro_test

import (
	"context"
	"testing"

	"repro/dispatch"
	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/lp"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/pricing"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/taskmap"
	"repro/internal/trace"
)

// benchProblem builds the standard bench-scale market once per call.
func benchProblem(b *testing.B, seed int64, tasks, drivers int, dm trace.DriverModel) *core.Problem {
	b.Helper()
	cfg := trace.NewConfig(seed, tasks, drivers, dm)
	tr := trace.NewGenerator(cfg).Generate(nil)
	p, err := core.NewProblem(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- Figure 3 & 4: trace distributions -------------------------------

func BenchmarkFig3TravelTimeDistribution(b *testing.B) {
	cfg := experiments.Default()
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig3TravelTime(cfg)
	}
	if len(fig.Series) > 0 {
		xs := fig.Series[0].X
		b.ReportMetric(xs[len(xs)-1], "max-min(tt)")
	}
}

func BenchmarkFig4TravelDistanceDistribution(b *testing.B) {
	cfg := experiments.Default()
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig4TravelDistance(cfg)
	}
	if len(fig.Series) > 0 {
		xs := fig.Series[0].X
		b.ReportMetric(xs[len(xs)-1], "max-km")
	}
}

// --- Figure 5: performance ratio vs driver count ---------------------

func benchmarkFig5(b *testing.B, dm trace.DriverModel) {
	cfg := experiments.Default()
	cfg.Sweep = []int{20, 60, 120} // bench-speed subset of the sweep
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Fig5PerformanceRatio(context.Background(), cfg, dm)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the final (densest-market) ratio of each curve.
	for _, s := range fig.Series {
		b.ReportMetric(s.Y[len(s.Y)-1], "ratio-"+s.Name)
	}
}

func BenchmarkFig5PerformanceRatioHitchhiking(b *testing.B) {
	benchmarkFig5(b, trace.Hitchhiking)
}

func BenchmarkFig5PerformanceRatioHomeWorkHome(b *testing.B) {
	benchmarkFig5(b, trace.HomeWorkHome)
}

// --- Figures 6–9: market-density study -------------------------------

func densitySweep(b *testing.B) experiments.DensityMetrics {
	b.Helper()
	cfg := experiments.Default()
	var m experiments.DensityMetrics
	for i := 0; i < b.N; i++ {
		var err error
		m, err = experiments.RunDensitySweep(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return m
}

func BenchmarkFig6TotalRevenue(b *testing.B) {
	m := densitySweep(b)
	last := len(m.Drivers) - 1
	b.ReportMetric(m.Revenue[0][0], "rev-sparse")
	b.ReportMetric(m.Revenue[0][last], "rev-dense")
}

func BenchmarkFig7ServeRate(b *testing.B) {
	m := densitySweep(b)
	last := len(m.Drivers) - 1
	b.ReportMetric(m.ServeRate[0][0], "serve-sparse")
	b.ReportMetric(m.ServeRate[0][last], "serve-dense")
}

func BenchmarkFig8AvgRevenuePerDriver(b *testing.B) {
	m := densitySweep(b)
	last := len(m.Drivers) - 1
	b.ReportMetric(m.AvgRev[0][0], "avgrev-sparse")
	b.ReportMetric(m.AvgRev[0][last], "avgrev-dense")
}

func BenchmarkFig9AvgTasksPerDriver(b *testing.B) {
	m := densitySweep(b)
	last := len(m.Drivers) - 1
	b.ReportMetric(m.AvgTasks[0][0], "avgtasks-sparse")
	b.ReportMetric(m.AvgTasks[0][last], "avgtasks-dense")
}

// --- §VI-B small-scale exact comparison (CPLEX role) -----------------

func BenchmarkExactSmallScale(b *testing.B) {
	// The paper's n ≤ 50, m ≤ 100 exact regime, shrunk to a size
	// exhaustive search settles: exact Z* by brute force.
	p := benchProblem(b, 1, 12, 4, trace.Hitchhiking)
	g := p.Graph()
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := bound.BruteForce(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		greedy := offline.Greedy(g).TotalProfit
		gap = greedy / ex.Objective
	}
	b.ReportMetric(gap, "greedy/Z*")
}

// --- Fig. 2 / Theorem 1: tightness instance --------------------------

func BenchmarkTightnessInstance(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		mkt, drivers, tasks, err := offline.TightnessInstance(6, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		g, err := taskmap.New(mkt, drivers, tasks)
		if err != nil {
			b.Fatal(err)
		}
		ga := offline.Greedy(g)
		ex, err := bound.BruteForce(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		ratio = ga.TotalProfit / ex.Objective
	}
	b.ReportMetric(ratio, "GA/OPT")
}

// --- Micro-benchmarks: substrates ------------------------------------

func BenchmarkTaskMapConstruction(b *testing.B) {
	cfg := trace.NewConfig(3, 250, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taskmap.New(cfg.Market, tr.Drivers, tr.Tasks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLongestPathDP(b *testing.B) {
	p := benchProblem(b, 3, 250, 40, trace.Hitchhiking)
	g := p.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BestPath(i%g.N(), nil, nil)
	}
}

func BenchmarkSimplexMediumLP(b *testing.B) {
	// A 60x120 random-ish dense LP, the master-LP shape.
	build := func() *lp.Problem {
		p := lp.NewProblem(120)
		for j := 0; j < 120; j++ {
			p.SetObjective(j, float64((j*37)%11)-3)
		}
		for i := 0; i < 60; i++ {
			entries := make([]lp.Entry, 0, 12)
			for k := 0; k < 12; k++ {
				col := (i*13 + k*7) % 120
				entries = append(entries, lp.Entry{Col: col, Val: float64((i+k)%5) + 0.5})
			}
			p.AddRow(float64(5+i%7), entries...)
		}
		return p
	}
	prob := build()
	var s lp.Solver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColumnGenerationSmall(b *testing.B) {
	p := benchProblem(b, 5, 40, 8, trace.Hitchhiking)
	g := p.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bound.ColumnGeneration(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLagrangianBound(b *testing.B) {
	p := benchProblem(b, 5, 250, 60, trace.Hitchhiking)
	g := p.Graph()
	lb := offline.Greedy(g).TotalProfit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound.Lagrangian(g, lb, 60)
	}
}

func BenchmarkOnlineMaxMargin(b *testing.B) {
	cfg := trace.NewConfig(7, 250, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunScenario(tr.Tasks, nil, online.MaxMargin{})
	}
}

func BenchmarkOnlineNearest(b *testing.B) {
	cfg := trace.NewConfig(7, 250, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunScenario(tr.Tasks, nil, online.Nearest{})
	}
}

// --- Spatial index: dispatch at fleet scale ---------------------------

// benchmarkDispatchScale runs a full online day at city-fleet driver
// counts under one candidate source. The scan engine pays O(N) per
// task; the indexed engine only examines drivers inside the pickup's
// reachability radius. Both paths produce identical results (asserted
// by the sim differential tests); the "served" metric is reported so a
// divergence would also be visible here. The numbers of record for this
// leg are the instant_50k workload of benchmark/.
func benchmarkDispatchScale(b *testing.B, drivers int, src func() sim.CandidateSource) {
	if testing.Short() {
		b.Skip("full-day city-scale dispatch is seconds per op; skipped in -short smoke runs")
	}
	cfg := trace.NewConfig(27, 1000, drivers, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetCandidateSource(src())
	var served int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		served = eng.RunScenario(tr.Tasks, nil, online.MaxMargin{}).Served
	}
	b.ReportMetric(float64(served), "served")
}

func scanSrc() sim.CandidateSource { return &sim.ScanSource{} }
func gridSrc() sim.CandidateSource { return sim.NewGridSource(nil) }

func BenchmarkOnlineMaxMarginScan10k(b *testing.B) { benchmarkDispatchScale(b, 10_000, scanSrc) }
func BenchmarkOnlineMaxMarginGrid10k(b *testing.B) { benchmarkDispatchScale(b, 10_000, gridSrc) }
func BenchmarkOnlineMaxMarginScan50k(b *testing.B) { benchmarkDispatchScale(b, 50_000, scanSrc) }
func BenchmarkOnlineMaxMarginGrid50k(b *testing.B) { benchmarkDispatchScale(b, 50_000, gridSrc) }

// BenchmarkInstantDecision is the per-layer probe of the instant path:
// the instant_50k day of benchmark/ (50k drivers, 1 000 orders, instant
// MaxMargin over the indexed source) submitted order by order, with the
// index build outside the timer. It reports the time of one decision
// and, from an untimed second day under a counting Market.Dist, how
// many drivers a decision scored exactly: every exact score measures
// the distance into the order's pickup once, and so does the commit of
// each served order, which is subtracted. From the same day come the
// source's own counts (sim.WalkStats): index entries put through the
// predicate, those it passed, cells skipped whole and cells stepped
// onto, empty ones included, a decision, and what the index did to keep its cells in step with the
// clock — entries woken, entries expired, and entries shifted to keep a
// parked region in wake order.
func BenchmarkInstantDecision(b *testing.B) {
	if testing.Short() {
		b.Skip("city-scale instant day; skipped in -short smoke runs")
	}
	cfg, tr := instantConfig()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		instantDay(b, cfg.Market, tr, b.StartTimer)
		b.StopTimer()
	}
	orders := float64(len(tr.Tasks))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*orders), "ns/decision")

	counts := countInstantDay(b, cfg.Market, tr)
	b.ReportMetric(float64(counts.exact)/orders, "exact-scores/decision")
	b.ReportMetric(float64(counts.walk.EntriesScanned)/orders, "entries-scanned/decision")
	b.ReportMetric(float64(counts.walk.Reached)/orders, "reached/decision")
	b.ReportMetric(float64(counts.walk.CellsSkipped)/orders, "cells-skipped/decision")
	b.ReportMetric(float64(counts.walk.CellsStepped)/orders, "cells-stepped/decision")
	b.ReportMetric(float64(counts.walk.Woken)/orders, "woken/decision")
	b.ReportMetric(float64(counts.walk.Expired)/orders, "expired/decision")
	b.ReportMetric(float64(counts.walk.Shifted)/orders, "shifted/decision")
}

// TestInstantWalkCounts pins what BenchmarkInstantDecision counts of its
// day, whole-day totals over its 1 000 orders: they repeat to the digit,
// so any change to the walk, the index or the engine that moves one
// shows here, and says so in its change note.
func TestInstantWalkCounts(t *testing.T) {
	cfg, tr := instantConfig()
	got := countInstantDay(t, cfg.Market, tr)
	w := got.walk
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"exact scores", uint64(got.exact), 12_335},
		{"entries scanned", w.EntriesScanned, 863_028},
		{"reached", w.Reached, 735_063},
		{"cells visited", w.CellsVisited, 301_577},
		{"cells skipped", w.CellsSkipped, 156_404},
		{"cells stepped", w.CellsStepped, 518_602},
		{"woken", w.Woken, 49_490},
		{"expired", w.Expired, 48_948},
		{"shifted", w.Shifted, 32},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d over the day (%.3f a decision), want %d", c.name, c.got, float64(c.got)/float64(len(tr.Tasks)), c.want)
		}
	}
}

// instantConfig is benchmark/'s instant_50k day at seed 27: 50k drivers
// and 1 000 orders.
func instantConfig() (trace.Config, model.Trace) {
	cfg := trace.NewConfig(27, 1000, 50_000, trace.Hitchhiking)
	return cfg, trace.NewGenerator(cfg).Generate(nil)
}

// instantDay binds a fresh engine over tr's fleet to the indexed source,
// calls begin, and submits every order to instant MaxMargin.
func instantDay(tb testing.TB, mkt model.Market, tr model.Trace, begin func()) (served int, walk sim.WalkStats) {
	eng, err := sim.New(mkt, tr.Drivers, 1)
	if err != nil {
		tb.Fatal(err)
	}
	src := sim.NewGridSource(nil)
	eng.SetCandidateSource(src)
	st, err := eng.NewStream(online.MaxMargin{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	begin()
	for _, task := range tr.Tasks {
		dec, err := st.SubmitTask(task)
		if err != nil {
			tb.Fatal(err)
		}
		if dec.Assigned {
			served++
		}
	}
	return served, src.WalkStats()
}

// instantCounts is what an instant day did: drivers scored exactly, and
// the source's counters.
type instantCounts struct {
	exact int
	walk  sim.WalkStats
}

// countInstantDay runs instantDay under a counting Market.Dist: every
// exact score measures the distance into the order's pickup once, and so
// does the commit of each served order, which is subtracted; the bind's
// ways home are not counted.
func countInstantDay(tb testing.TB, mkt model.Market, tr model.Trace) instantCounts {
	counting, intoPickup := countIntoPickups(mkt, tr.Tasks)
	served, walk := instantDay(tb, counting, tr, func() { *intoPickup = 0 })
	return instantCounts{exact: *intoPickup - served, walk: walk}
}

// countIntoPickups returns mkt with a Dist that counts the distances
// measured into one of the tasks' pickups: one per exact score of a
// driver against an order, and one per commit of a served order — once
// the day has begun; before, the index's bind takes every driver's way
// home, and some of their homes are pickups.
func countIntoPickups(mkt model.Market, tasks []model.Task) (model.Market, *int) {
	pickups := make(map[geo.Point]bool, len(tasks))
	for _, task := range tasks {
		pickups[task.Source] = true
	}
	intoPickup := new(int)
	counting := mkt
	counting.Dist = func(a, p geo.Point) float64 {
		if pickups[p] {
			*intoPickup++
		}
		return mkt.Dist(a, p)
	}
	return counting, intoPickup
}

// BenchmarkWindowClose is the probe of the batched crow-fly path: the
// window-closing half of benchmark/'s durable_churn day (10k drivers,
// 4 000 orders, 60 s Hungarian windows over the indexed source, no
// churn and no journal) submitted order by order. It reports the time
// of one window — the day's wall time over its windows; submissions
// between closes only enqueue — the share of windows two of whose orders
// ranked one driver first, so that a matching decided them
// (contested/window), and, from an untimed second day under a counting
// Market.Dist, how many drivers a window row scored exactly (counted as
// BenchmarkInstantDecision counts them), with the source's counts of
// entries scanned, reached and cells skipped, a row.
func BenchmarkWindowClose(b *testing.B) {
	if testing.Short() {
		b.Skip("city-scale batched day; skipped in -short smoke runs")
	}
	cfg := trace.NewConfig(27, 4000, 10_000, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	b.ResetTimer()
	b.StopTimer()
	windows, contested := 0, 0
	for i := 0; i < b.N; i++ {
		windows, contested, _, _, _ = windowDay(b, cfg.Market, tr.Drivers, tr.Tasks, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(windows)), "ns/window")
	b.ReportMetric(float64(contested)/float64(windows), "contested/window")

	counting, intoPickup := countIntoPickups(cfg.Market, tr.Tasks)
	_, _, rows, served, walk := windowDay(b, counting, tr.Drivers, tr.Tasks, intoPickup)
	b.ReportMetric(float64(*intoPickup-served)/float64(rows), "exact-scores/row")
	b.ReportMetric(float64(walk.EntriesScanned)/float64(rows), "entries-scanned/row")
	b.ReportMetric(float64(walk.Reached)/float64(rows), "reached/row")
	b.ReportMetric(float64(walk.CellsSkipped)/float64(rows), "cells-skipped/row")
}

// BenchmarkRoadWindowClose is BenchmarkWindowClose on batched_network's
// shape: 10k drivers and 1 200 orders in 60 s windows over the default
// 20×24 street grid, whose router — a node table, built outside the
// timer — is both Market.Dist and Market.Batch. The exact scores of a
// row are the source's own count: road scoring measures through the
// batcher, which no counting Market.Dist sees.
func BenchmarkRoadWindowClose(b *testing.B) {
	if testing.Short() {
		b.Skip("city-scale batched road day; skipped in -short smoke runs")
	}
	rcfg := roadnet.DefaultGridConfig()
	g, err := roadnet.GenerateGrid(rcfg)
	if err != nil {
		b.Fatal(err)
	}
	router := roadnet.NewRouter(g, rcfg.Box, 0)
	mkt := model.DefaultMarket()
	mkt.Dist, mkt.Batch = router.Dist, router
	fleet := trace.NewGenerator(trace.NewConfig(27, 1, 10_000, trace.Hitchhiking)).GenerateDrivers()
	tasks := trace.NewGenerator(trace.NewConfig(28, 1200, 1, trace.Hitchhiking)).Generate(nil).Tasks
	b.ResetTimer()
	b.StopTimer()
	windows := 0
	for i := 0; i < b.N; i++ {
		windows, _, _, _, _ = windowDay(b, mkt, fleet, tasks, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(windows)), "ns/window")

	_, _, rows, _, walk := windowDay(b, mkt, fleet, tasks, new(int))
	b.ReportMetric(float64(walk.CellsSkipped)/float64(rows), "cells-skipped/row")
	b.ReportMetric(float64(walk.ExactScores)/float64(rows), "exact-scores/row")
}

// windowDay runs one batched day of tasks over drivers in 60 s windows on
// the indexed source, submitted order by order: timed, or with counted
// set counted from its first decision. It returns the windows closed,
// those a matching decided, the rows, the orders served and the source's
// counts.
func windowDay(b *testing.B, mkt model.Market, drivers []model.Driver, tasks []model.Task, counted *int) (windows, contested, rows, served int, walk sim.WalkStats) {
	eng, err := sim.New(mkt, drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := sim.NewGridSource(nil)
	eng.SetCandidateSource(src)
	st, err := eng.NewBatchedStream(60, sim.BatchHungarian, nil)
	if err != nil {
		b.Fatal(err)
	}
	st.SetBatchCloseHandler(func(w sim.BatchStats) {
		windows++
		if w.Contested {
			contested++
		}
		rows += w.Matched + w.Rejected
		served += w.Matched
	})
	if counted != nil {
		*counted = 0
	} else {
		b.StartTimer()
		defer b.StopTimer()
	}
	for _, task := range tasks {
		if _, err := st.SubmitTask(task); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := st.Finish(); err != nil {
		b.Fatal(err)
	}
	return windows, contested, rows, served, src.WalkStats()
}

// BenchmarkScenarioChurn measures the event-driven engine on the
// dynamic workload the batch replayer could not express: a 10k-driver
// day with mid-day joins, early retirements and rider cancellations,
// dispatched through the indexed source.
func BenchmarkScenarioChurn10k(b *testing.B) {
	if testing.Short() {
		b.Skip("city-scale scenario day; skipped in -short smoke runs")
	}
	cfg := trace.NewConfig(27, 1000, 10_000, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.ChurnConfig{
		Seed: 31, JoinFraction: 0.25, RetireFraction: 0.2, CancelFraction: 0.15,
	})
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetCandidateSource(sim.NewGridSource(nil))
	var res sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eng.RunScenario(tr.Tasks, events, online.MaxMargin{})
	}
	b.ReportMetric(float64(res.Served), "served")
	b.ReportMetric(float64(res.Cancelled), "cancelled")
}

// BenchmarkSpatialIndexNear measures one window query against a
// 10k-point index — the query the indexed source's full list makes, a
// 2.5 km reach (30 km/h for 5 minutes) over points that are always
// available: the per-task cost floor of indexed dispatch.
func BenchmarkSpatialIndexNear(b *testing.B) {
	rng := trace.NewGenerator(trace.NewConfig(29, 10_000, 1, trace.Hitchhiking))
	tasks := rng.GenerateTasks()
	pts := make([]geo.Point, len(tasks))
	for i, tk := range tasks {
		pts[i] = tk.Source
	}
	grid := geo.NewGrid(geo.PortoBox, 64, 64)
	ix := spatial.NewIndex(grid, pts)
	var visited int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visited = 0
		ix.NearReachable(pts[i%len(pts)], 30, 300, 0, 0, func(int) { visited++ })
	}
	b.ReportMetric(float64(visited), "visited")
}

// BenchmarkDensitySweepSerial vs ...Parallel measures the worker-pool
// speedup of the Figs 6–9 sweep (identical series either way; the win
// scales with core count).
func benchmarkDensitySweep(b *testing.B, workers int) {
	cfg := experiments.Default()
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDensitySweep(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDensitySweepSerial(b *testing.B)   { benchmarkDensitySweep(b, 1) }
func BenchmarkDensitySweepParallel(b *testing.B) { benchmarkDensitySweep(b, 0) }

func BenchmarkSurgePricer(b *testing.B) {
	m := model.DefaultMarket()
	grid := geo.NewGrid(geo.PortoBox, 8, 8)
	s := pricing.NewSurge(pricing.NewLinear(m, 1), grid, 3)
	tk := model.Task{Source: geo.PortoBox.Center(), Dest: geo.PortoBox.Lerp(0.8, 0.8),
		StartBy: 600, EndBy: 1800}
	s.ObserveDemand(tk.Source, 5)
	s.ObserveSupply(tk.Source, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Price(tk)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := trace.NewConfig(11, 1000, 100, trace.Hitchhiking)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.NewGenerator(cfg).Generate(nil)
	}
}

func BenchmarkPowerLawFit(b *testing.B) {
	cfg := trace.NewConfig(13, 5000, 1, trace.Hitchhiking)
	tasks := trace.NewGenerator(cfg).GenerateTasks()
	xs := make([]float64, len(tasks))
	for i, tk := range tasks {
		xs[i] = cfg.Market.Dist(tk.Source, tk.Dest)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.FitPowerLaw(xs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md design choices) ----------------------------

// BenchmarkAblationGreedyLazy vs ...GreedyNaive quantifies the lazy
// priority-queue evaluation against the textbook O(N²M²) loop on the
// same instance (identical output, see offline tests).
func BenchmarkAblationGreedyLazy(b *testing.B) {
	p := benchProblem(b, 9, 250, 60, trace.Hitchhiking)
	g := p.Graph()
	var rec int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = offline.Greedy(g).Recomputes
	}
	b.ReportMetric(float64(rec), "dp-calls")
}

func BenchmarkAblationGreedyNaive(b *testing.B) {
	p := benchProblem(b, 9, 250, 60, trace.Hitchhiking)
	g := p.Graph()
	var rec int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = offline.GreedyNaive(g).Recomputes
	}
	b.ReportMetric(float64(rec), "dp-calls")
}

// BenchmarkAblationDeadlineVsRealTime quantifies how much extra capacity
// the online market gains when drivers free up at real finish times
// (§III-B) instead of deadlines (Algorithms 3–4 as written).
func BenchmarkAblationDeadlineAvailability(b *testing.B) {
	benchmarkAvailability(b, false)
}

func BenchmarkAblationRealTimeAvailability(b *testing.B) {
	benchmarkAvailability(b, true)
}

func benchmarkAvailability(b *testing.B, realTime bool) {
	cfg := trace.NewConfig(15, 250, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng.RealTime = realTime
	var profit float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profit = eng.RunScenario(tr.Tasks, nil, online.MaxMargin{}).TotalProfit
	}
	b.ReportMetric(profit, "profit")
}

// BenchmarkAblationByValueOrdering measures the offline sorted variant
// of maxMargin (§V-B) against arrival-order processing.
func BenchmarkAblationByValueOrdering(b *testing.B) {
	cfg := trace.NewConfig(17, 250, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	var arrival, byValue float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrival = eng.RunScenario(tr.Tasks, nil, online.MaxMargin{}).TotalProfit
		byValue = eng.RunByValue(tr.Tasks, online.MaxMargin{}).TotalProfit
	}
	b.ReportMetric(arrival, "profit-arrival")
	b.ReportMetric(byValue, "profit-byvalue")
}

// BenchmarkAblationSurgeVsFlat compares market outcomes under flat and
// surge pricing on the same demand curve (the paper's §VI-C discussion
// of congestion control levers).
func BenchmarkAblationSurgeVsFlat(b *testing.B) {
	cfg := trace.NewConfig(19, 250, 40, trace.HomeWorkHome)
	gen := trace.NewGenerator(cfg)
	flatTrace := gen.Generate(pricing.NewLinear(cfg.Market, 1))
	surgeTasks := append([]model.Task(nil), flatTrace.Tasks...)
	grid := geo.NewGrid(cfg.Box, 6, 6)
	surge := pricing.NewSurge(pricing.NewLinear(cfg.Market, 1), grid, 3)
	for _, d := range flatTrace.Drivers {
		surge.ObserveSupply(d.Source, 1)
	}
	for i := range surgeTasks {
		surge.ObserveDemand(surgeTasks[i].Source, 1)
		surgeTasks[i].Price = surge.Price(surgeTasks[i])
		surgeTasks[i].WTP = surgeTasks[i].Price * 1.5
	}
	eng, err := sim.New(cfg.Market, flatTrace.Drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	var flat, surged float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat = eng.RunScenario(flatTrace.Tasks, nil, online.MaxMargin{}).TotalProfit
		surged = eng.RunScenario(surgeTasks, nil, online.MaxMargin{}).TotalProfit
	}
	b.ReportMetric(flat, "profit-flat")
	b.ReportMetric(surged, "profit-surge")
}

// BenchmarkAblationBatchedDispatch compares batched maximum-weight
// matching dispatch (Hungarian per 30s window) against instant per-task
// assignment on the same day — the framework's implementation of the
// paper's "non-heuristic online algorithms" future-work direction.
func BenchmarkAblationBatchedDispatch(b *testing.B) {
	cfg := trace.NewConfig(21, 250, 40, trace.Hitchhiking)
	cfg.PickupWindowMin = 10 * 60 // batching needs notice to breathe
	cfg.PickupWindowMax = 20 * 60
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	var instant, batched float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instant = eng.RunScenario(tr.Tasks, nil, online.MaxMargin{}).TotalProfit
		batched = eng.RunBatchedScenario(tr.Tasks, nil, 30).TotalProfit
	}
	b.ReportMetric(instant, "profit-instant")
	b.ReportMetric(batched, "profit-batched")
}

func BenchmarkHungarianMatching(b *testing.B) {
	// Batch-shaped instance: 12 tasks x 40 drivers.
	w := make([][]float64, 12)
	for r := range w {
		w[r] = make([]float64, 40)
		for c := range w[r] {
			if (r*41+c*17)%5 == 0 {
				w[r][c] = matching.Forbidden
				continue
			}
			w[r][c] = float64((r*31+c*13)%23) - 5
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.Hungarian(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoadNetworkRouting(b *testing.B) {
	g, err := roadnet.GenerateGrid(roadnet.DefaultGridConfig())
	if err != nil {
		b.Fatal(err)
	}
	router := roadnet.NewRouter(g, geo.PortoBox, 10)
	pts := make([]geo.Point, 64)
	for i := range pts {
		pts[i] = geo.PortoBox.Lerp(float64(i%8)/8+0.05, float64(i/8)/8+0.05)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router.Dist(pts[i%64], pts[(i*7+3)%64])
	}
}

// BenchmarkAblationRoadVsCrowFly builds the same market under network
// and straight-line distances and reports the greedy profit gap (the
// estimation-error story of roadnet's ExampleRouter_Dist).
func BenchmarkAblationRoadVsCrowFly(b *testing.B) {
	g, err := roadnet.GenerateGrid(roadnet.DefaultGridConfig())
	if err != nil {
		b.Fatal(err)
	}
	router := roadnet.NewRouter(g, geo.PortoBox, 10)
	cfg := trace.NewConfig(23, 150, 25, trace.Hitchhiking)
	cfg.Market.Dist = router.Dist
	tr := trace.NewGenerator(cfg).Generate(nil)

	roadP, err := core.NewProblem(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		b.Fatal(err)
	}
	crowMkt := cfg.Market
	crowMkt.Dist = geo.Equirectangular
	crowP, err := core.NewProblem(crowMkt, tr.Drivers, tr.Tasks)
	if err != nil {
		b.Fatal(err)
	}
	var road, promised, delivered float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roadSol := offline.Greedy(roadP.Graph())
		crowSol := offline.Greedy(crowP.Graph())
		road = roadSol.TotalProfit
		promised = crowSol.TotalProfit
		delivered = 0
		for _, path := range crowSol.Paths {
			if pr, err := roadP.Graph().PathProfit(path.Driver, path.Tasks); err == nil {
				delivered += pr
			}
		}
	}
	b.ReportMetric(road, "profit-road-aware")
	b.ReportMetric(promised, "profit-crow-promised")
	b.ReportMetric(delivered, "profit-crow-delivered")
}

// BenchmarkAblationReplanDispatch measures rolling-horizon
// re-optimization (offline greedy re-run at every arrival) against the
// instant maxMargin heuristic — the strongest online strategy in the
// framework versus the paper's best heuristic.
func BenchmarkAblationReplanDispatch(b *testing.B) {
	cfg := trace.NewConfig(25, 250, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		b.Fatal(err)
	}
	var replan, instant float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replan = eng.RunReplanScenario(tr.Tasks, nil, 120).TotalProfit
		instant = eng.RunScenario(tr.Tasks, nil, online.MaxMargin{}).TotalProfit
	}
	b.ReportMetric(replan, "profit-replan")
	b.ReportMetric(instant, "profit-instant")
}

// --- Extension experiments -------------------------------------------

// BenchmarkExtWelfareGap quantifies §III-E's claim that optimizing
// drivers' profit (Eq. 4) is "enough": the welfare attained by the
// profit objective vs the welfare objective.
func BenchmarkExtWelfareGap(b *testing.B) {
	cfg := experiments.Default()
	cfg.Sweep = []int{60}
	var rows []experiments.WelfareRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.WelfareComparison(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ProfitObjWelfare, "welfare-profit-obj")
	b.ReportMetric(rows[0].WelfareObjWelfare, "welfare-welfare-obj")
}

// BenchmarkExtSurgeSweep reports the serve rate and earnings inequality
// at the extremes of the surge-cap sweep (§VI-C congestion levers).
func BenchmarkExtSurgeSweep(b *testing.B) {
	cfg := experiments.Default()
	var rows []experiments.SurgeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.SurgeSweep(context.Background(), cfg, 40, []float64{1, 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AvgProfit, "avgprofit-flat")
	b.ReportMetric(rows[1].AvgProfit, "avgprofit-surge3")
	b.ReportMetric(rows[1].Gini, "gini-surge3")
}

// BenchmarkExtDispatchComparison lines up all five dispatch strategies.
func BenchmarkExtDispatchComparison(b *testing.B) {
	cfg := experiments.Default()
	var rows []experiments.DispatchRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.DispatchComparison(context.Background(), cfg, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Ratio, "ratio-"+r.Name[:7])
	}
}

// BenchmarkServiceNew times dispatch.New alone over a 50 000-driver
// fleet generated beforehand as `serve` generates it: the half of a
// market's boot that is not the trace generator — converting and
// validating the fleet, the engine, and binding the candidate index.
func BenchmarkServiceNew(b *testing.B) {
	fleet := trace.NewGenerator(trace.NewConfig(27, 1, 50_000, trace.Hitchhiking)).GenerateDrivers()
	m := dispatch.Market{Drivers: make([]dispatch.Driver, len(fleet))}
	for i, f := range fleet {
		m.Drivers[i] = dispatch.Driver{ID: i, Source: dispatch.Point(f.Source), Dest: dispatch.Point(f.Dest),
			Start: f.Start, End: f.End, SpeedKmh: f.SpeedKmh}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := dispatch.New(m, dispatch.WithSeed(1), dispatch.WithStrictTimes())
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := svc.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
