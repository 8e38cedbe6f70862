package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/trace"
)

// Local stand-ins for the online package's dispatchers (which cannot be
// imported here without a cycle). They replicate the order- and
// RNG-sensitivity that makes candidate-set identity observable: maxMargin
// keeps the first best under strict comparison, nearest breaks arrival
// ties through the engine RNG, random consumes one draw per task.
// maxMargin is RankMargin's rule: the first of the greatest positive
// margins, a NaN margin not positive.

type diffMaxMargin struct{}

func (diffMaxMargin) Name() string { return "maxMargin" }
func (diffMaxMargin) Choose(_ model.Task, cands []Candidate, _ *rand.Rand) int {
	best := -1
	for i, c := range cands {
		if c.Margin > 0 && (best < 0 || c.Margin > cands[best].Margin) {
			best = i
		}
	}
	return best
}

type diffNearest struct{}

func (diffNearest) Name() string { return "nearest" }
func (diffNearest) Choose(_ model.Task, cands []Candidate, rng *rand.Rand) int {
	best, ties := -1, 0
	for i, c := range cands {
		switch {
		case best < 0 || c.Arrival < cands[best].Arrival:
			best, ties = i, 1
		case c.Arrival == cands[best].Arrival:
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// rankedMaxMargin and rankedNearest are the same two choosers declaring
// what they rank by, as online's do: on a GridSource they are handed the
// bounded list (Contenders), everywhere else the full one. The
// capability-less forms above stay the reference column of every sweep.
type rankedMaxMargin struct{ diffMaxMargin }

func (rankedMaxMargin) Name() string   { return "maxMargin+rank" }
func (rankedMaxMargin) RankedBy() Rank { return RankMargin }

type rankedNearest struct{ diffNearest }

func (rankedNearest) Name() string   { return "nearest+rank" }
func (rankedNearest) RankedBy() Rank { return RankArrival }

// forms lists what the indexed engine runs against one scan run of d: d
// itself (the full list through the index) and its Ranked twin, if it
// has one (the bounded list).
func forms(d Dispatcher) []Dispatcher {
	switch d.(type) {
	case diffMaxMargin:
		return []Dispatcher{d, rankedMaxMargin{}}
	case diffNearest:
		return []Dispatcher{d, rankedNearest{}}
	}
	return []Dispatcher{d}
}

type diffRandom struct{}

func (diffRandom) Name() string { return "random" }
func (diffRandom) Choose(_ model.Task, cands []Candidate, rng *rand.Rand) int {
	if len(cands) == 0 {
		return -1
	}
	return rng.Intn(len(cands))
}

// These differential tests are the correctness contract of the spatial
// candidate index: on randomized markets — varying grid granularity,
// driver counts, working models and both availability modes — the
// indexed engine must produce the *identical* Result (serve counts,
// revenue, every per-driver assignment sequence, bit-for-bit floats) as
// the linear-scan engine, for every Run* entry point. The pre-filter may
// only ever shrink the work, never the candidate set.

// diffEngine builds one column of a differential: an engine over the
// given inputs and candidate source.
func diffEngine(t *testing.T, mkt model.Market, drivers []model.Driver, seed int64, realTime bool, src CandidateSource) *Engine {
	t.Helper()
	e, err := New(mkt, drivers, seed)
	if err != nil {
		t.Fatal(err)
	}
	e.RealTime = realTime
	e.SetCandidateSource(src)
	return e
}

// runPair runs the same simulation on a scan engine and a grid engine
// built from identical inputs and returns both results.
func runPair(t *testing.T, mkt model.Market, drivers []model.Driver, seed int64,
	realTime bool, grid *geo.Grid, run func(e *Engine) Result) (scan, indexed Result) {
	t.Helper()
	ge := diffEngine(t, mkt, drivers, seed, realTime, NewGridSource(grid))
	scan, indexed = run(diffEngine(t, mkt, drivers, seed, realTime, &ScanSource{})), run(ge)
	auditIndex(t, "indexed engine", ge)
	return scan, indexed
}

// diffForms runs one instant day of d on a scan engine and then every
// form of d on an indexed engine built from the same inputs: the books
// and the RNG position must all equal the scan's.
func diffForms(t *testing.T, label string, mkt model.Market, drivers []model.Driver, seed int64,
	realTime bool, grid *geo.Grid, d Dispatcher, run func(e *Engine, d Dispatcher) Result) {
	t.Helper()
	se := diffEngine(t, mkt, drivers, seed, realTime, &ScanSource{})
	scan := run(se, d)
	for _, form := range forms(d) {
		ge := diffEngine(t, mkt, drivers, seed, realTime, NewGridSource(grid))
		diffResults(t, label+" disp="+form.Name(), scan, run(ge, form))
		auditIndex(t, label+" disp="+form.Name(), ge)
		if se.RNGDraws() != ge.RNGDraws() {
			t.Errorf("%s disp=%s: %d RNG draws on the index, %d on the scan", label, form.Name(), ge.RNGDraws(), se.RNGDraws())
		}
	}
}

func diffResults(t *testing.T, label string, scan, indexed Result) {
	t.Helper()
	if reflect.DeepEqual(scan, indexed) {
		return
	}
	t.Errorf("%s: indexed result diverges from linear scan", label)
	if scan.Served != indexed.Served || scan.Rejected != indexed.Rejected {
		t.Errorf("%s: served/rejected %d/%d vs %d/%d",
			label, scan.Served, scan.Rejected, indexed.Served, indexed.Rejected)
	}
	if scan.Revenue != indexed.Revenue || scan.TotalProfit != indexed.TotalProfit {
		t.Errorf("%s: revenue/profit %.9f/%.9f vs %.9f/%.9f",
			label, scan.Revenue, scan.TotalProfit, indexed.Revenue, indexed.TotalProfit)
	}
	for ti, d := range scan.Assignment {
		if indexed.Assignment[ti] != d {
			t.Errorf("%s: task %d assigned to driver %d by scan, %d by index",
				label, ti, d, indexed.Assignment[ti])
		}
	}
	for ti := range indexed.Assignment {
		if _, ok := scan.Assignment[ti]; !ok {
			t.Errorf("%s: task %d served only by the indexed engine", label, ti)
		}
	}
}

// TestGridSourceMatchesScan sweeps randomized markets and asserts
// identical results for instant dispatch under both heuristics.
func TestGridSourceMatchesScan(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	grids := map[string]func() *geo.Grid{
		"auto":   func() *geo.Grid { return nil },
		"coarse": func() *geo.Grid { return geo.NewGrid(geo.PortoBox, 2, 3) },
		"fine":   func() *geo.Grid { return geo.NewGrid(geo.PortoBox, 48, 48) },
	}
	dispatchers := []Dispatcher{diffMaxMargin{}, diffNearest{}, diffRandom{}}

	for _, seed := range seeds {
		for _, nDrivers := range []int{3, 25, 120} {
			for _, dm := range []trace.DriverModel{trace.Hitchhiking, trace.HomeWorkHome} {
				cfg := trace.NewConfig(seed, 150, nDrivers, dm)
				tr := trace.NewGenerator(cfg).Generate(nil)
				for _, realTime := range []bool{false, true} {
					for gname, mk := range grids {
						for _, d := range dispatchers {
							label := fmt.Sprintf("seed=%d n=%d model=%v rt=%v grid=%s",
								seed, nDrivers, dm, realTime, gname)
							diffForms(t, label, cfg.Market, tr.Drivers, seed, realTime, mk(), d,
								func(e *Engine, d Dispatcher) Result { return e.RunScenario(tr.Tasks, nil, d) })
						}
					}
				}
			}
		}
	}
}

// TestGridSourceMatchesScanByValueAndBatched covers the remaining entry
// points: descending-price processing, batched matching (whose
// candidate queries happen at the batch close, after the publish time)
// and rolling-horizon replanning.
func TestGridSourceMatchesScanByValueAndBatched(t *testing.T) {
	seeds := []int64{11, 12, 13, 14}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 120, 40, trace.Hitchhiking)
		cfg.PickupWindowMin = 8 * 60 // give batches room to form
		cfg.PickupWindowMax = 16 * 60
		tr := trace.NewGenerator(cfg).Generate(nil)

		scan, indexed := runPair(t, cfg.Market, tr.Drivers, seed, false, nil,
			func(e *Engine) Result { return e.RunByValue(tr.Tasks, diffMaxMargin{}) })
		diffResults(t, fmt.Sprintf("seed=%d by-value", seed), scan, indexed)

		scan, indexed = runPair(t, cfg.Market, tr.Drivers, seed, false, nil,
			func(e *Engine) Result { return e.RunBatchedScenario(tr.Tasks, nil, 30) })
		diffResults(t, fmt.Sprintf("seed=%d batched", seed), scan, indexed)

		scan, indexed = runPair(t, cfg.Market, tr.Drivers, seed, false, nil,
			func(e *Engine) Result { return e.RunReplanScenario(tr.Tasks, nil, 60) })
		diffResults(t, fmt.Sprintf("seed=%d replan", seed), scan, indexed)
	}
}

// TestGridSourceMatchesScanWithSpeedOverrides exercises fleets with
// per-driver speeds: the reachability radius must follow the fastest
// driver, not the market default.
func TestGridSourceMatchesScanWithSpeedOverrides(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		cfg := trace.NewConfig(seed, 120, 60, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		for i := range tr.Drivers {
			switch i % 3 {
			case 0:
				tr.Drivers[i].SpeedKmh = 55 // faster than the 30 km/h market
			case 1:
				tr.Drivers[i].SpeedKmh = 18
			}
		}
		for _, d := range []Dispatcher{diffMaxMargin{}, diffNearest{}} {
			diffForms(t, fmt.Sprintf("seed=%d speed-overrides", seed), cfg.Market, tr.Drivers, seed, false, nil, d,
				func(e *Engine, d Dispatcher) Result { return e.RunScenario(tr.Tasks, nil, d) })
		}
	}
}

// TestGridSourceMatchesScanScenario adds the dynamic workloads — driver
// churn and rider cancellations: the scan engine and the indexed engine
// must agree on the full Result including cancellation accounting, for
// instant, batched and replanned dispatch.
func TestGridSourceMatchesScanScenario(t *testing.T) {
	seeds := []int64{51, 52, 53, 54}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 150, 60, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		events := trace.WithChurn(tr, trace.ChurnConfig{
			Seed: seed + 100, JoinFraction: 0.3, RetireFraction: 0.3, CancelFraction: 0.25,
		})
		if len(events) == 0 {
			t.Fatalf("seed=%d: churn produced no events", seed)
		}
		for _, d := range []Dispatcher{diffNearest{}, diffMaxMargin{}} {
			diffForms(t, fmt.Sprintf("seed=%d scenario=instant", seed), cfg.Market, tr.Drivers, seed, false, nil, d,
				func(e *Engine, d Dispatcher) Result { return e.RunScenario(tr.Tasks, events, d) })
		}
		runs := map[string]func(e *Engine) Result{
			"batched": func(e *Engine) Result {
				return e.RunBatchedScenario(tr.Tasks, events, 45)
			},
			"replan": func(e *Engine) Result { return e.RunReplanScenario(tr.Tasks, events, 90) },
		}
		for name, run := range runs {
			scan, indexed := runPair(t, cfg.Market, tr.Drivers, seed, false, nil, run)
			diffResults(t, fmt.Sprintf("seed=%d scenario=%s", seed, name), scan, indexed)
			if indexed.Cancelled != scan.Cancelled {
				t.Errorf("seed=%d scenario=%s: cancelled %d vs scan %d",
					seed, name, indexed.Cancelled, scan.Cancelled)
			}
		}
	}
}

// TestGridSourcePanicsOnFarGrid: a static grid whose latitude band is
// nowhere near the fleet would silently void the conservative
// pre-filtering guarantee; Bind — which the first run on the source
// calls — must reject it loudly instead.
func TestGridSourcePanicsOnFarGrid(t *testing.T) {
	cfg := trace.NewConfig(41, 10, 5, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	e, err := New(cfg.Market, tr.Drivers, 41)
	if err != nil {
		t.Fatal(err)
	}
	equatorial := geo.NewGrid(geo.BoundingBox{MinLat: -1, MinLon: -8.7, MaxLat: 1, MaxLon: -8.5}, 8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("binding an equatorial grid to a Porto fleet did not panic")
		}
	}()
	e.SetCandidateSource(NewGridSource(equatorial))
	e.RunScenario(tr.Tasks, nil, diffMaxMargin{})
}

// TestCoverageMatchesCosineForm: the band test Bind and Added take first
// answers as polewardOf does, on grids north, south and astride the
// equator, at a pole, and over a box past a pole that no geo.NewGrid
// would make (where the band must not be trusted), for points at and one
// ulp either side of each band edge and of the poleward limit, at the
// equator, at ±90° and spread over the globe.
func TestCoverageMatchesCosineForm(t *testing.T) {
	grids := []*geo.Grid{
		geo.NewGrid(geo.PortoBox, 8, 8),
		geo.NewGrid(geo.BoundingBox{MinLat: -1, MinLon: -8.7, MaxLat: 1, MaxLon: -8.5}, 8, 8),
		geo.NewGrid(geo.BoundingBox{MinLat: -34.2, MinLon: 18.3, MaxLat: -33.7, MaxLon: 18.9}, 8, 8),
		geo.NewGrid(geo.BoundingBox{MinLat: 0, MinLon: 0, MaxLat: 0.5, MaxLon: 1}, 8, 8),
		geo.NewGrid(geo.BoundingBox{MinLat: 80, MinLon: 0, MaxLat: 90, MaxLon: 1}, 8, 8),
		geo.NewGrid(geo.BoundingBox{MinLat: -90, MinLon: 0, MaxLat: -85, MaxLon: 1}, 8, 8),
		{Box: geo.BoundingBox{MinLat: -100, MinLon: 0, MaxLat: 10, MaxLon: 1}, Rows: 1, Cols: 1},
	}
	rng := rand.New(rand.NewSource(5))
	poleward := 0
	for _, grid := range grids {
		boxCos := minCos(grid)
		lats := []float64{0, math.Copysign(0, -1), 90, -90, math.NaN()}
		limit := math.Acos(boxCos/1.05) * 180 / math.Pi
		for _, edge := range []float64{grid.Box.MinLat, grid.Box.MaxLat, limit, -limit} {
			lats = append(lats, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		for i := 0; i < 2000; i++ {
			lats = append(lats, -90+180*rng.Float64())
		}
		c := coverageOf(grid)
		for _, lat := range lats {
			p := geo.Point{Lat: lat, Lon: grid.Box.MinLon}
			want := polewardOf(boxCos, p)
			if got := c.poleward(p); got != want {
				t.Errorf("box %+v, latitude %v: band-first form says poleward %v, the cosine form %v", grid.Box, lat, got, want)
			}
			if want {
				poleward++
			}
		}
	}
	if poleward == 0 {
		t.Fatal("no point was poleward of any grid: the comparison never saw a true")
	}
}

// TestDefaultSourceIsGrid guards the seam's default: New binds the
// indexed source every service runs, and SetCandidateSource(nil) binds
// one again, not the scan it replaced.
func TestDefaultSourceIsGrid(t *testing.T) {
	cfg := trace.NewConfig(31, 60, 10, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	e, err := New(cfg.Market, tr.Drivers, 31)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.source.(*GridSource); !ok {
		t.Fatalf("source after New is %T, want *GridSource", e.source)
	}
	e.SetCandidateSource(&ScanSource{})
	e.SetCandidateSource(nil)
	if _, ok := e.source.(*GridSource); !ok {
		t.Fatalf("source after SetCandidateSource(nil) is %T, want *GridSource", e.source)
	}
	res := e.RunScenario(tr.Tasks, nil, diffMaxMargin{})
	auditIndex(t, "after SetCandidateSource(nil)", e)
	if res.Served+res.Rejected != len(tr.Tasks) {
		t.Fatalf("run after source swap lost tasks: %d+%d != %d", res.Served, res.Rejected, len(tr.Tasks))
	}
}
