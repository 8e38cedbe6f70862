package sim

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// embedSource, embedDispatcher and embedBatcher wrap a layer the way a
// decorator does: a struct that embeds the interface and overrides
// nothing. Each forwards every method of the interface, the bounded
// paths included.
type (
	embedSource     struct{ CandidateSource }
	embedDispatcher struct{ Dispatcher }
	embedBatcher    struct{ model.DistanceBatcher }
)

// wrappedCount is what one day of TestWrappedLayersKeepBoundedPaths
// measured: Market.Dist calls from the first decision, router snaps, the
// source's walk counters, the engine's RNG draws and the books.
type wrappedCount struct {
	calls int
	snaps uint64
	stats WalkStats
	draws uint64
	res   Result
}

// TestWrappedLayersKeepBoundedPaths runs one day twice, bare and with
// the candidate source, the dispatcher and the market's batcher each
// wrapped in a struct that only embeds its interface: the wrapped day
// must take the same bounded paths, so it makes as many Market.Dist
// calls and snaps, reads the same WalkStats, draws as often and settles
// the same books. A capability the engine found by type assertion would
// be hidden by the wrapper and the wrapped day would score the full list.
// The days are an instant crow-fly one under both ranks and a batched
// one on the default 20×24 street grid, whose router has a node table.
func TestWrappedLayersKeepBoundedPaths(t *testing.T) {
	check := func(label string, bare, wrapped wrappedCount) {
		t.Helper()
		diffResults(t, label, bare.res, wrapped.res)
		if bare.calls != wrapped.calls || bare.snaps != wrapped.snaps || bare.stats != wrapped.stats || bare.draws != wrapped.draws {
			t.Errorf("%s: bare day %d Market.Dist calls, %d snaps, %d draws, %+v; wrapped %d, %d, %d, %+v",
				label, bare.calls, bare.snaps, bare.draws, bare.stats, wrapped.calls, wrapped.snaps, wrapped.draws, wrapped.stats)
		}
		if bare.res.Served == 0 || bare.stats.ExactScores == 0 {
			t.Errorf("%s: %d served, %+v: the day takes no bounded path", label, bare.res.Served, bare.stats)
		}
	}

	cfg := trace.NewConfig(17, 200, 5000, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	for _, d := range []Dispatcher{rankedMaxMargin{}, rankedNearest{}} {
		day := func(wrap bool) (n wrappedCount) {
			mkt := cfg.Market
			mkt.Dist = func(a, b geo.Point) float64 {
				n.calls++
				return cfg.Market.Dist(a, b)
			}
			grid := NewGridSource(nil)
			var src CandidateSource = grid
			disp := d
			if wrap {
				src, disp = embedSource{src}, embedDispatcher{d}
			}
			e := diffEngine(t, mkt, tr.Drivers, 1, false, src)
			n.res = countedDay(t, func() (*Stream, error) { return e.NewStream(disp, nil) }, &n.calls, tr.Tasks)
			n.stats, n.draws = grid.WalkStats(), e.RNGDraws()
			return n
		}
		check("instant crow-fly "+d.Name(), day(false), day(true))
	}

	rcfg := roadnet.DefaultGridConfig()
	g, err := roadnet.GenerateGrid(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	router := roadnet.NewRouter(g, rcfg.Box, 0)
	if table, _ := router.Table(); table == nil {
		t.Fatalf("the %d-node router has no table", g.NumNodes())
	}
	fleet := trace.NewGenerator(trace.NewConfig(27, 1, 3000, trace.Hitchhiking)).GenerateDrivers()
	tasks := trace.NewGenerator(trace.NewConfig(28, 500, 1, trace.Hitchhiking)).Generate(nil).Tasks
	day := func(wrap bool) (n wrappedCount) {
		mkt := model.DefaultMarket()
		mkt.Dist = func(a, b geo.Point) float64 {
			n.calls++
			return router.Dist(a, b)
		}
		mkt.Batch = router
		grid := NewGridSource(nil)
		var src CandidateSource = grid
		if wrap {
			src, mkt.Batch = embedSource{src}, embedBatcher{router}
		}
		e := diffEngine(t, mkt, fleet, 1, false, src)
		snaps := router.Snaps()
		n.res = countedDay(t, func() (*Stream, error) { return e.NewBatchedStream(60, BatchHungarian, nil) }, &n.calls, tasks)
		n.snaps, n.stats, n.draws = router.Snaps()-snaps, grid.WalkStats(), e.RNGDraws()
		return n
	}
	check("batched road", day(false), day(true))
}
