package sim

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// TestRoadNetworkMetricDifferential is the network-metric property
// wall: with Market.Dist swapped from crow-fly to the roadnet router,
// an engine day must stay bit-identical across ScanSource and
// GridSource × routing kernel (CH vs ALT) × batched distance hook
// (installed vs absent), under churn and cancellations, for both
// instant and batched dispatch. The batch-hook dimension pins the
// one-to-many scoring path to the per-pair loop it replaces.
//
// Every variant with the hook installed then replays both days through
// the streaming API, suspended mid-day: captured, and restored both
// onto the engine that ran the first half (whose snap memo describes a
// fleet RestoreStream is about to replace) and onto a fresh one. The
// instant day's cancellations are all revocations — the handleFree
// path, which puts a driver back where she was — and the snap memo is
// walked after every operation (checkSnapMemo).
//
// The wall stands on both sides of the router's size split: on a 12×14
// graph and on a 32×32 one — 1 024 nodes, the largest the table takes —
// where both routers answer from the all-pairs table, the kernel
// dimension shows that the algorithm selects nothing, and the indexed
// source with the hook installed takes the margin walks with the table
// bound (roadLeg); and on a 33×32 graph — 1 056 nodes, the smallest
// default-shaped grid over the table's 1 024 — where CH and ALT route
// behind the cache and the indexed source keeps the full list.
func TestRoadNetworkMetricDifferential(t *testing.T) {
	for _, leg := range []struct {
		name       string
		rows, cols int
	}{{"table", 12, 14}, {"table-edge", 32, 32}} {
		t.Run(leg.name, func(t *testing.T) {
			ch, _ := roadNetworkMetricDifferential(t, leg.rows, leg.cols)
			if table, n := ch.Table(); n != leg.rows*leg.cols || len(table) != n*n {
				t.Fatalf("a %dx%d router holds a table of %d entries over %d nodes", leg.rows, leg.cols, len(table), n)
			}
			if ch.Snaps() == 0 {
				t.Error("the router resolved no point; the network metric was not on the hot path")
			}
			if hits, misses, evictions := ch.CacheStats(); hits|misses|evictions != 0 || ch.CacheSize() != 0 {
				t.Errorf("a table router reports a cache after its day: hits=%d misses=%d evictions=%d size=%d",
					hits, misses, evictions, ch.CacheSize())
			}
		})
	}
	t.Run("kernels", func(t *testing.T) {
		ch, alt := roadNetworkMetricDifferential(t, 33, 32)
		if table, _ := ch.Table(); table != nil {
			t.Fatal("a 1 056-node router holds a table")
		}
		for name, r := range map[string]*roadnet.Router{"ch": ch, "alt": alt} {
			if hits, misses, _ := r.CacheStats(); hits == 0 || misses == 0 {
				t.Errorf("%s route cache never exercised (hits=%d misses=%d); the network metric was not on the hot path", name, hits, misses)
			}
		}
	})
}

// roadNetworkMetricDifferential is the wall over one rows×cols street
// grid; it returns the CH-configured and ALT-configured routers the
// variants shared, for the caller to ask what the day left in them.
func roadNetworkMetricDifferential(t *testing.T, rows, cols int) (chRouter, altRouter *roadnet.Router) {
	rcfg := roadnet.DefaultGridConfig()
	rcfg.Rows, rcfg.Cols = rows, cols
	g, err := roadnet.GenerateGrid(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	chRouter = roadnet.NewRouter(g, rcfg.Box, 8)
	altRouter = roadnet.NewRouterAlgo(g, rcfg.Box, 8, roadnet.AlgoALT)

	// Generate the trace under the network metric so deadlines and
	// prices are feasible for the distances the engine will see.
	cfg := trace.NewConfig(59, 140, 110, trace.Hitchhiking)
	cfg.Market.Dist = chRouter.Dist
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.ChurnConfig{
		Seed: 11, JoinFraction: 0.2, RetireFraction: 0.15, CancelFraction: 0.2,
	})

	type variant struct {
		name  string
		src   func() CandidateSource
		alt   bool // route with the ALT kernel instead of CH
		batch bool // install the one-to-many scoring hook
	}
	scan := func() CandidateSource { return &ScanSource{} }
	indexed := func() CandidateSource { return NewGridSource(nil) }
	variants := []variant{
		{"scan", scan, false, false},
		{"scan", scan, false, true},
		{"scan", scan, true, false},
		{"indexed", indexed, false, true},
		{"indexed", indexed, true, false},
	}

	engine := func(v variant) *Engine {
		market := cfg.Market
		router := chRouter
		if v.alt {
			router = altRouter
		}
		market.Dist = router.Dist
		if v.batch {
			market.Batch = router
		}
		eng, err := New(market, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetCandidateSource(v.src())
		return eng
	}
	run := func(v variant, d Dispatcher) Result {
		eng := engine(v)
		if d == nil {
			return eng.RunBatchedScenario(tr.Tasks, events, 60)
		}
		return eng.RunScenario(tr.Tasks, events, d)
	}

	feed, fleet := buildFeed(tr.Tasks, events)
	var memoChecked, memoStale int
	suspended := func(v variant, d Dispatcher, sameEngine bool) Result {
		batched := d == nil
		eng := engine(v)
		apply := func(st *Stream, items []feedItem) {
			for i := range items {
				applyItems(t, st, tr.Tasks, items[i:i+1])
				checked, stale := checkSnapMemo(t, eng, chRouter)
				memoChecked += checked
				memoStale += stale
			}
		}
		var st *Stream
		var err error
		if batched {
			st, err = eng.NewBatchedStream(60, BatchHungarian, fleet)
		} else {
			st, err = eng.NewStream(d, fleet)
		}
		if err != nil {
			t.Fatal(err)
		}
		cut := len(feed) / 2
		apply(st, feed[:cut])
		state, err := st.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		if !sameEngine {
			eng = engine(v)
		}
		if batched {
			st, err = eng.RestoreStream(state, nil, 60)
		} else {
			st, err = eng.RestoreStream(state, d, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		apply(st, feed[cut:])
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The batched day has no dispatcher (nil). The instant day runs
	// under the plain chooser — the reference, on variants[0] — and its
	// Ranked twin: without the hook the index bounds the road metric
	// (floored at crow-fly, so the planar bound stands); with it, the
	// rows and Contenders bound the pickup leg by the table where there
	// is one, and hand back scoreCandidates' batched full list where
	// there is not.
	for _, d := range []Dispatcher{nil, diffMaxMargin{}, rankedMaxMargin{}} {
		batched := d == nil
		ref := d
		if _, twin := d.(Ranked); twin {
			ref = diffMaxMargin{}
		}
		want := run(variants[0], ref)
		if want.Served == 0 {
			t.Fatalf("degenerate baseline (batched=%v): nothing served under network metric", batched)
		}
		if !batched && want.Cancelled == 0 {
			t.Fatal("degenerate baseline: the instant day revoked no assignment, handleFree never ran")
		}
		for _, v := range variants[1:] {
			if got := run(v, d); !reflect.DeepEqual(want, got) {
				t.Errorf("batched=%v %T: %s(alt=%v,batch=%v) diverges from scan under network metric: served %d vs %d, revenue %.9f vs %.9f — this is a bug",
					batched, d, v.name, v.alt, v.batch, got.Served, want.Served, got.Revenue, want.Revenue)
			}
			if !v.batch {
				continue
			}
			for _, sameEngine := range []bool{true, false} {
				if got := suspended(v, d, sameEngine); !reflect.DeepEqual(want, got) {
					t.Errorf("batched=%v %T: %s suspended and restored mid-day (same engine: %v) diverges from scan: served %d vs %d, cancelled %d vs %d, revenue %.9f vs %.9f — this is a bug",
						batched, d, v.name, sameEngine, got.Served, want.Served, got.Cancelled, want.Cancelled, got.Revenue, want.Revenue)
				}
			}
		}
	}
	if memoChecked == 0 || memoStale == 0 {
		t.Errorf("snap memo walk saw %d current and %d outdated entries; it must see both to mean anything", memoChecked, memoStale)
	}
	return chRouter, altRouter
}

// checkSnapMemo walks the engine's snap memo and holds every entry the
// scoring path would use as it stands — filled, and taken for the
// driver's present location and home — equal to a fresh Snap of those
// points (and its location→home distance to a fresh Dist). An entry
// taken for a point the driver has since left is outdated, not wrong:
// the memo validates itself on use, so nothing has to invalidate it
// when a driver is assigned, revoked, restored or joins. It returns how
// many entries of each kind it saw.
func checkSnapMemo(t *testing.T, e *Engine, r *roadnet.Router) (current, outdated int) {
	t.Helper()
	if len(e.memo) != len(e.Drivers) {
		t.Fatalf("snap memo holds %d entries for %d drivers", len(e.memo), len(e.Drivers))
	}
	for i := range e.memo {
		m := &e.memo[i]
		loc, home := e.states[i].loc, e.Drivers[i].Dest
		if !m.filled {
			continue
		}
		if m.loc.P != loc || m.home.P != home {
			outdated++
			continue
		}
		current++
		if want := r.Snap(loc); m.loc != want {
			t.Fatalf("driver %d: memoised location snap %+v, fresh %+v", i, m.loc, want)
		}
		if want := r.Snap(home); m.home != want {
			t.Fatalf("driver %d: memoised home snap %+v, fresh %+v", i, m.home, want)
		}
		if want := r.Dist(loc, home); m.hasHomeKm && m.homeKm != want {
			t.Fatalf("driver %d: memoised location→home distance %v, fresh %v", i, m.homeKm, want)
		}
	}
	return current, outdated
}

// snapCountingSource measures the scoring path from outside: the snaps
// the router takes inside Candidates calls, the calls themselves, and
// the moves the engine reports between them.
type snapCountingSource struct {
	CandidateSource
	router         *roadnet.Router
	queries, moves int
	snaps          uint64
}

func (s *snapCountingSource) Candidates(task model.Task, now float64, buf []Candidate) []Candidate {
	before := s.router.Snaps()
	buf = s.CandidateSource.Candidates(task, now, buf)
	s.snaps += s.router.Snaps() - before
	s.queries++
	return buf
}

func (s *snapCountingSource) Moved(i int) {
	s.moves++
	s.CandidateSource.Moved(i)
}

// TestScoringSnapsOncePerMove is the count pin of the snap-once
// contract, on a churned network day with joins, retirements and
// revocations: over all candidate queries the router resolves no more
// points than two per query (the order's endpoints), two per driver
// (her first location and her home) and one per move (her new
// location) — however many drivers each query scores and however often
// a driver is scored between moves. Before the engine kept snaps, every
// scored pair resolved both its ends again: hundreds of snaps per
// order. What the day resolves outside scoring is bounded too: assign
// and settle still measure point to point, two distances each.
func TestScoringSnapsOncePerMove(t *testing.T) {
	rcfg := roadnet.DefaultGridConfig()
	rcfg.Rows, rcfg.Cols = 12, 14
	g, err := roadnet.GenerateGrid(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.NewConfig(59, 140, 110, trace.Hitchhiking)
	cfg.Market.Dist = roadnet.NewRouter(g, rcfg.Box, 0).Dist
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.ChurnConfig{
		Seed: 11, JoinFraction: 0.2, RetireFraction: 0.15, CancelFraction: 0.2,
	})

	for _, batched := range []bool{false, true} {
		router := roadnet.NewRouter(g, rcfg.Box, 0)
		market := cfg.Market
		market.Dist, market.Batch = router.Dist, router
		eng, err := New(market, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		src := &snapCountingSource{CandidateSource: NewGridSource(nil), router: router}
		eng.SetCandidateSource(src)

		dayStart := router.Snaps()
		var res Result
		if batched {
			res = eng.RunBatchedScenario(tr.Tasks, events, 60)
		} else {
			res = eng.RunScenario(tr.Tasks, events, diffMaxMargin{})
		}
		day := router.Snaps() - dayStart
		if res.Served == 0 || res.Cancelled == 0 || src.moves <= res.Served {
			t.Fatalf("batched=%v: degenerate day (served %d, cancelled %d, moves %d): the pin needs assignments and revocations",
				batched, res.Served, res.Cancelled, src.moves)
		}

		drivers := len(tr.Drivers)
		bound := uint64(2*src.queries + 2*drivers + src.moves)
		if src.snaps > bound {
			t.Errorf("batched=%v: scoring resolved %d points over %d queries, %d drivers and %d moves; snap-once allows %d",
				batched, src.snaps, src.queries, drivers, src.moves, bound)
		}
		if src.snaps < uint64(2*src.queries) {
			t.Errorf("batched=%v: scoring resolved %d points over %d queries: the counter is not on the scoring path",
				batched, src.snaps, src.queries)
		}
		if outside, allowed := day-src.snaps, uint64(4*src.moves+4*drivers); outside > allowed {
			t.Errorf("batched=%v: the day resolved %d points outside scoring, assign and settle account for at most %d",
				batched, outside, allowed)
		}
	}
}

// TestRoadNetworkMetricChangesOutcome is the companion sanity check:
// the network metric must actually matter. A day dispatched with
// network distances must differ from the same day under crow-fly —
// otherwise the rail is wired to a no-op.
func TestRoadNetworkMetricChangesOutcome(t *testing.T) {
	rcfg := roadnet.DefaultGridConfig()
	rcfg.Rows, rcfg.Cols = 12, 14
	g, err := roadnet.GenerateGrid(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	router := roadnet.NewRouter(g, rcfg.Box, 8)

	crowCfg := trace.NewConfig(61, 120, 90, trace.Hitchhiking)
	tr := trace.NewGenerator(crowCfg).Generate(nil)

	crowEng, err := New(crowCfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	crow := crowEng.RunBatchedScenario(tr.Tasks, nil, 60)

	netMarket := crowCfg.Market
	netMarket.Dist = router.Dist
	netEng, err := New(netMarket, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := netEng.RunBatchedScenario(tr.Tasks, nil, 60)

	if crow.Served == 0 || net.Served == 0 {
		t.Fatalf("degenerate day: crow served %d, net served %d", crow.Served, net.Served)
	}
	if reflect.DeepEqual(crow, net) {
		t.Fatal("network metric produced a bit-identical day to crow-fly; the distance function is not reaching dispatch")
	}
}
