package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/spatial"
	"repro/internal/trace"
)

// The tests in this file hold the two bounded paths — the instant one
// (Dispatcher.RankedBy, GridSource.Contenders) and the window's rows
// (GridSource.TopRow) — to their two promises: they do less, and neither
// a chooser nor a window solve can tell. The differential wall sweeps
// both over generated days; here are the work counts, the row-level
// differentials, the tie window the generators never produce and the
// fuzz targets that aim at the admissibility of the bound itself.

// TestBoundedPathScoresFewer counts Market.Dist calls over one fixed
// day, indexed source both times: the full list scores every reachable
// driver, the bounded list only those whose optimistic rank reaches the
// incumbent — and, ranking by margin, only in the cells whose bound
// does. The calls are counted from the first decision (countedDay): the
// bind before it takes every driver's way home, which is set-up. The
// counts, Market.Dist's and the source's own (WalkStats), are properties
// of the inputs, so they must repeat exactly — one that moves between
// runs would mean the path reads something other than engine state — and
// each has a ceiling at what was measured when the entries began to
// carry their way home from the bind (7 953 calls over the engine's life
// before, 8 968 before the cell walk; the arrival rank's 4 238 were the
// ascending walk's). The cell bound has a floor there, and every entry
// must carry her way home (auditIndex): a bound left at +Inf until a walk
// tightens it skipped 10 535 cells of the margin rank's 21 294, and
// scanned 55 926 entries. The index's own transitions (spatial.Stats)
// are the same for the full list, which asks the same queries, and are
// pinned as they are counted: about 50 a decision on this day, and no
// sort — the bind's Load put every cell's parked region in wake order
// (515 first settles sorted one before it did). Shifted has a ceiling of
// one entry an order instead (6 measured) — a park that cost the size of
// its cell would read in the thousands.
func TestBoundedPathScoresFewer(t *testing.T) {
	cfg := trace.NewConfig(17, 200, 5000, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	day := func(d Dispatcher) (calls int, stats WalkStats, res Result) {
		mkt := cfg.Market
		mkt.Dist = func(a, b geo.Point) float64 {
			calls++
			return cfg.Market.Dist(a, b)
		}
		e, err := New(mkt, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		src := NewGridSource(nil)
		e.SetCandidateSource(src)
		res = countedDay(t, func() (*Stream, error) { return e.NewStream(d, nil) }, &calls, tr.Tasks)
		n, stats := calls, src.WalkStats() // before the audit, which measures and queries
		auditIndex(t, d.Name(), e)
		return n, stats, res
	}
	for _, col := range []struct {
		d       Dispatcher
		ceiling int       // Market.Dist calls
		most    WalkStats // ceilings; CellsSkipped is a floor
	}{
		{diffMaxMargin{}, 3161, WalkStats{CellsVisited: 21294, CellsSkipped: 13918, EntriesScanned: 45009, ExactScores: 1001,
			Stats: spatial.Stats{Woken: 5092, Expired: 4901, Shifted: 200}}},
		{diffNearest{}, 3690, WalkStats{ExactScores: 1289,
			Stats: spatial.Stats{Woken: 5093, Expired: 4901, Shifted: 200}}},
	} {
		full, none, want := day(col.d)
		if none != (WalkStats{Stats: none.Stats}) || !sameTransitions(none.Stats, col.most.Stats) {
			t.Errorf("%s: the full list counted %+v; want nothing on the bounded paths and the index's %+v", col.d.Name(), none, col.most.Stats)
		}
		ranked := forms(col.d)[1]
		bounded, stats, got := day(ranked)
		diffResults(t, ranked.Name(), want, got)
		if again, stats2, _ := day(ranked); again != bounded || stats2 != stats {
			t.Errorf("%s: %d Market.Dist calls and %+v, then %d and %+v on the same day", ranked.Name(), bounded, stats, again, stats2)
		}
		if want.Served == 0 || bounded > col.ceiling {
			t.Errorf("%s: %d Market.Dist calls against the full list's %d over %d served orders; want at most %d",
				ranked.Name(), bounded, full, want.Served, col.ceiling)
		}
		if stats.CellsVisited > col.most.CellsVisited || stats.EntriesScanned > col.most.EntriesScanned ||
			stats.ExactScores > col.most.ExactScores || stats.CellsSkipped < col.most.CellsSkipped {
			t.Errorf("%s: %+v; want at most %+v, and at least that many cells skipped", ranked.Name(), stats, col.most)
		}
		if !sameTransitions(stats.Stats, col.most.Stats) {
			t.Errorf("%s: the index counted %+v, want %+v", ranked.Name(), stats.Stats, col.most.Stats)
		}
		t.Logf("%s: %d calls, full list %d (%.1fx), %d orders, %+v", ranked.Name(), bounded, full, float64(full)/float64(bounded), len(tr.Tasks), stats)
	}
}

// TestUnprofitableDayScoresFew is TestBoundedPathScoresFewer's day with
// every price 0: no order is worth serving, and the margin rank is the
// row of one, whose floor — a positive margin — skips every cell whose
// bound is not above it: 163 exact scores. A walk whose bar is the best
// margin met so far, however negative, scores 1 039 to learn that
// nothing pays.
func TestUnprofitableDayScoresFew(t *testing.T) {
	cfg := trace.NewConfig(17, 200, 5000, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	for i := range tr.Tasks {
		tr.Tasks[i].Price, tr.Tasks[i].WTP = 0, 0
	}
	day := func(src CandidateSource, d Dispatcher) Result {
		e := diffEngine(t, cfg.Market, tr.Drivers, 1, false, src)
		return e.RunScenario(tr.Tasks, nil, d)
	}
	want := day(&ScanSource{}, diffMaxMargin{})
	grid := NewGridSource(nil)
	got := day(grid, rankedMaxMargin{})
	diffResults(t, "zero prices", want, got)
	if want.Served != 0 || want.Rejected != len(tr.Tasks) {
		t.Errorf("zero prices: %d served, %d rejected of %d orders; want none served", want.Served, want.Rejected, len(tr.Tasks))
	}
	if stats := grid.WalkStats(); stats.ExactScores > 200 || stats.CellsSkipped == 0 {
		t.Errorf("zero prices: %+v; want at most 200 exact scores and some cells skipped", stats)
	} else {
		t.Logf("zero prices: %+v", stats)
	}
}

// TestNaNMetricSameBooks runs the scan and the index under a metric that
// answers NaN for some pairs: a NaN leg fails its deadline clause, and a
// NaN way home from where a driver stands leaves her a NaN margin, which
// the margin rank's rule does not count as positive — the full list's
// chooser passes over it wherever it stands, and the row of one drops
// it. Both must settle the same books.
func TestNaNMetricSameBooks(t *testing.T) {
	cfg := trace.NewConfig(23, 120, 400, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	nans := 0
	mkt := cfg.Market
	mkt.Dist = func(a, b geo.Point) float64 {
		if int(math.Abs(a.Lat*1e5)+math.Abs(b.Lon*1e5))%5 == 0 {
			nans++
			return math.NaN()
		}
		return cfg.Market.Dist(a, b)
	}
	for _, realTime := range []bool{false, true} {
		want := diffEngine(t, mkt, tr.Drivers, 1, realTime, &ScanSource{}).RunScenario(tr.Tasks, nil, diffMaxMargin{})
		got := diffEngine(t, mkt, tr.Drivers, 1, realTime, NewGridSource(nil)).RunScenario(tr.Tasks, nil, rankedMaxMargin{})
		diffResults(t, fmt.Sprintf("NaN metric, real time %v", realTime), want, got)
		if want.Served == 0 || nans == 0 || math.IsNaN(want.TotalProfit) {
			t.Errorf("real time %v: %d served for profit %g, %d NaN distances; the day tests nothing", realTime, want.Served, want.TotalProfit, nans)
		}
		t.Logf("real time %v: %d of %d served, %d NaN distances so far", realTime, want.Served, len(tr.Tasks), nans)
	}
}

// countedDay opens a stream on an engine whose Market.Dist counts into
// *calls, zeroes the count, submits the tasks in turn and returns the
// settled books: the calls of the day, from its first decision to its
// settlement, without those of the bind that opened it.
func countedDay(t *testing.T, open func() (*Stream, error), calls *int, tasks []model.Task) Result {
	t.Helper()
	st, err := open()
	if err != nil {
		t.Fatal(err)
	}
	*calls = 0
	for _, task := range tasks {
		if _, err := st.SubmitTask(task); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameTransitions holds the index's counters to want: equal, but for
// Shifted, which may be anything up to want's.
func sameTransitions(got, want spatial.Stats) bool {
	within := got.Shifted <= want.Shifted
	got.Shifted = want.Shifted
	return within && got == want
}

// TestNearestDrawsOnRunningTies is why RankArrival is walked in driver
// order and RankMargin need not be. Nearest draws from the RNG whenever
// a candidate ties the minimum *so far*: drivers 1 and 2 arrive together
// and driver 9 strictly earlier, so the full list costs one draw (2
// against 1) before 9 takes the order. A bounded list that left 1 or 2
// out — as any walk that comes to 9 before them must, their optimistic
// arrival being later than hers — would pick the same driver and leave
// the RNG one draw behind for the rest of the day. First the fuzz
// finding as it was found, everyone on one spot; then with 9 on the
// pickup and the other two waiting together 2 km north, where a walk by
// distance would certainly meet her first.
func TestNearestDrawsOnRunningTies(t *testing.T) {
	mkt := model.DefaultMarket()
	spot := geo.PortoBox.Center()
	north := geo.Point{Lat: spot.Lat + 2/geo.EarthRadiusKm*180/math.Pi, Lon: spot.Lon}
	for name, day := range map[string]struct {
		tie, early geo.Point
		tieAt      float64 // when 1 and 2 are free
		earlyAt    float64 // when 9 is
		publish    float64
		first      float64 // the arrival the tie must have, 0 for whatever it is
	}{
		"one spot":     {tie: spot, early: spot, tieAt: 13500, earlyAt: 11520, first: 13500},
		"two km apart": {tie: north, early: spot, publish: 1000},
	} {
		var fleet []model.Driver
		for i := 0; i < 10; i++ {
			d := model.Driver{ID: i, Source: spot, Dest: spot, Start: 15300, End: 40000} // free after the deadline
			switch i {
			case 1, 2:
				d.Source, d.Start = day.tie, day.tieAt
			case 9:
				d.Source, d.Start = day.early, day.earlyAt
			}
			fleet = append(fleet, d)
		}
		order := model.Task{ID: 0, Publish: day.publish, Source: spot, Dest: north,
			StartBy: 13500, EndBy: 20000, Price: 10, WTP: 10}

		src := NewGridSource(geo.NewGrid(geo.PortoBox, 16, 16))
		e := diffEngine(t, mkt, fleet, 1, false, src)
		if _, err := e.NewStream(rankedNearest{}, nil); err != nil {
			t.Fatal(err)
		}
		full := e.candidates(order, order.Publish, nil)
		if len(full) != 3 || full[0].Driver != 1 || full[1].Driver != 2 || full[2].Driver != 9 ||
			full[0].Arrival != full[1].Arrival || !(full[2].Arrival < full[0].Arrival) ||
			day.first != 0 && full[0].Arrival != day.first {
			t.Fatalf("%s: the full list %+v is not the tie of 1 and 2 ahead of an earlier 9", name, full)
		}
		bounded := src.Contenders(order, order.Publish, RankArrival, nil)
		if !slices.Equal(bounded, full) {
			t.Errorf("%s: contenders %+v, want all of %+v: 2 ties the running minimum", name, bounded, full)
		}
		for _, list := range [][]Candidate{full, bounded} {
			counter := newCountingSource(7)
			if pick := (rankedNearest{}).Choose(order, list, rand.New(counter)); list[pick].Driver != 9 || counter.n != 1 {
				t.Errorf("%s: driver %d after %d draws from %+v, want driver 9 after 1", name, list[pick].Driver, counter.n, list)
			}
		}
		// The margin rank has no such debt: its list may come in any order
		// of walking, and does, sorted.
		if byMargin := src.Contenders(order, order.Publish, RankMargin, nil); !slices.IsSortedFunc(byMargin, func(a, b Candidate) int { return a.Driver - b.Driver }) {
			t.Errorf("%s: margin contenders %+v are not in driver order", name, byMargin)
		}
	}
}

// fullRowsOnly takes the full list from a source: its Contenders are
// Candidates and its rows are topRow's, built from Candidates.
type fullRowsOnly struct{ CandidateSource }

func (s fullRowsOnly) Contenders(task model.Task, now float64, _ Rank, buf []Candidate) []Candidate {
	return s.Candidates(task, now, buf)
}

func (s fullRowsOnly) TopRow(task model.Task, now float64, k int, arena []Candidate) []Candidate {
	return topRow(s, task, now, k, arena)
}

// rowAudit is what auditRows saw: windows closed, rows compared, rows
// the full list had more than k positive margins for (pruned, so the
// root decided something) and rows it had fewer than k for (short: the
// heap never filled and only the floor pruned).
type rowAudit struct{ windows, rows, pruned, short int }

// auditRows hooks every window e closes: before it is solved, the
// bounded row of each of its orders (src, the engine's own source) must
// equal — Driver, and the bits of Margin and Arrival, element for
// element — the reference row: the scan's full list over the same
// engine state, filtered, selectTop'd and sorted by topRow. Rows are
// appended to one arena as closeBatchSparse appends them, at the
// window's own k and at each of extraK.
func auditRows(t *testing.T, e *Engine, src *GridSource, extraK ...int) *rowAudit {
	a := &rowAudit{}
	scan := &ScanSource{}
	scan.Bind(e)
	var got, want, full []Candidate
	e.auditHook = func(r *eventRun, batch []int, at float64) {
		a.windows++
		got, want = got[:0], want[:0]
		for _, k := range append([]int{len(batch)}, extraK...) {
			for _, ti := range batch {
				task := r.tasks[ti]
				start := len(got)
				want = topRow(scan, task, at, k, want)
				got = src.TopRow(task, at, k, got)
				if !sameRow(got[start:], want[start:]) {
					t.Fatalf("window at %g, task %d, k=%d: bounded row\n%+v\nfull row\n%+v", at, ti, k, got[start:], want[start:])
				}
				if k != len(batch) {
					continue
				}
				a.rows++
				positive := 0
				full = scan.Candidates(task, at, full[:0])
				for _, c := range full {
					if c.Margin > 0 {
						positive++
					}
				}
				if positive > k {
					a.pruned++
				} else if positive < k {
					a.short++
				}
			}
		}
	}
	return a
}

func sameRow(a, b []Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y Candidate) bool {
		return x.Driver == y.Driver &&
			math.Float64bits(x.Margin) == math.Float64bits(y.Margin) &&
			math.Float64bits(x.Arrival) == math.Float64bits(y.Arrival)
	})
}

// TestBoundedRowsEqualFullRows is the row-level differential the books
// cannot give: the window wall compares Results, and a wrong row that
// the solve happens not to use would pass it. Here every row of every
// window of a churned batched day, under both availability modes, is
// held to the reference row, and the day's books to the scan's.
func TestBoundedRowsEqualFullRows(t *testing.T) {
	cfg := trace.NewConfig(33, 500, 1500, trace.Hitchhiking)
	cfg.PickupWindowMin = 8 * 60 // give batches room to form
	cfg.PickupWindowMax = 16 * 60
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.ChurnConfig{
		Seed: 12, JoinFraction: 0.3, RetireFraction: 0.3, CancelFraction: 0.2,
	})
	for _, realTime := range []bool{false, true} {
		src := NewGridSource(nil)
		e := diffEngine(t, cfg.Market, tr.Drivers, 1, realTime, src)
		a := auditRows(t, e, src)
		got := e.RunBatchedScenario(tr.Tasks, events, 120)
		want := diffEngine(t, cfg.Market, tr.Drivers, 1, realTime, &ScanSource{}).RunBatchedScenario(tr.Tasks, events, 120)
		diffResults(t, fmt.Sprintf("realTime=%v", realTime), want, got)
		auditIndex(t, fmt.Sprintf("realTime=%v", realTime), e)
		if a.pruned == 0 || a.short == 0 || got.Served == 0 {
			t.Errorf("realTime=%v: %+v, %d served: the day must have rows the root prunes and rows that never fill", realTime, *a, got.Served)
		}
		t.Logf("realTime=%v: %+v", realTime, *a)
	}
}

// TestBoundedRowsTieWindow is the window the generators never produce:
// six identical drivers on one spot (the stack), orders starting on that
// spot and ending at the stack's home, so every leg of a stack driver is
// zero, her optimistic margin equals her exact one bitwise, and all six
// equal the order's price. Their ids are interleaved with drivers the
// floor skips (far: negative margins) and drivers the root skips or
// admits (near: a kilometre north, margins below the stack's, in an id
// order that is not their rank order). Rows are held to the reference
// for every k from 1 to past the fleet, and the books of one-window days
// to the scan's for k = 1, k below the stack, k between the stack and
// the positive margins, and k above them — where, as for the cheap order
// only the stack wants, the row has fewer than k positive margins.
//
// Mutants this kills, each tried by hand: a bound of 1.02× the planar
// distance in lowerKm (at k=8 near driver 10, who belongs in the row, is
// skipped against a root she beats); a heap whose root is not the
// ranksBefore-last element — no Fix after an append (the root stays
// driver 0 and a stack driver is skipped against a margin she ties but
// does not trail), no Fix after a root replacement (a just-admitted near
// driver sits at the root and the worst one stays in the row), a root
// replaced without asking ranksBefore; and no exact floor (the cheap
// order's near drivers are optimistic above 0 and exact below it). Skipping on < in place of <=,
// or on < 0 at the floor, is not a mutant: it scores the rest of the
// stack and drops them by ranksBefore — only slower.
func TestBoundedRowsTieWindow(t *testing.T) {
	mkt := model.DefaultMarket()
	spot := geo.PortoBox.Center()
	home := geo.Point{Lat: spot.Lat, Lon: spot.Lon + 0.06} // ~5 km east
	north := func(km float64) geo.Point {
		return geo.Point{Lat: spot.Lat + km/geo.EarthRadiusKm*180/math.Pi, Lon: spot.Lon}
	}
	far := geo.Point{Lat: spot.Lat - 0.05, Lon: spot.Lon - 0.08}
	var fleet []model.Driver
	stack := 0
	for id, at := range []geo.Point{
		spot, far, spot, north(1.010), spot, far, north(1.000), spot, north(0.990), spot, north(0.995), far, spot,
	} {
		d := model.Driver{ID: id, Source: at, Dest: home, Start: 0, End: 36000}
		if at == far {
			d.Dest = far
		}
		if at == spot {
			stack++
		}
		fleet = append(fleet, d)
	}
	order := func(id int, publish, price float64) model.Task {
		return model.Task{ID: id, Publish: publish, Source: spot, Dest: home,
			StartBy: publish + 1200, EndBy: publish + 3600, Price: price, WTP: price}
	}

	// The stack is what it is meant to be: the top six, at the price.
	src := NewGridSource(nil)
	e := diffEngine(t, mkt, fleet, 1, false, src)
	if _, err := e.NewBatchedStream(30, BatchHungarian, nil); err != nil {
		t.Fatal(err)
	}
	row := src.TopRow(order(0, 0, 1), 30, stack, nil)
	for _, c := range row {
		if fleet[c.Driver].Source != spot || math.Float64bits(c.Margin) != math.Float64bits(1) {
			t.Fatalf("the top %d are not the stack at the order's price, bitwise: %+v", stack, row)
		}
	}

	// Rows, at every k, over the untouched fleet.
	var ks []int
	for k := 2; k <= len(fleet)+1; k++ {
		ks = append(ks, k)
	}
	a := auditRows(t, e, src, ks...)
	e.RunBatchedScenario([]model.Task{order(0, 0, 1)}, nil, 30)
	if a.windows != 1 {
		t.Fatalf("%d windows audited, want 1", a.windows)
	}

	// Books, of days of two windows of k orders: the second window sees
	// the stack drivers the first one moved and locked.
	for _, k := range []int{1, 3, 8, 12} {
		var day []model.Task
		for w, publish := range []float64{0, 900} {
			for i := 0; i < k; i++ {
				price := 1.0
				if i == k-1 && k > 3 {
					// Only the stack has a positive margin for it; a near
					// driver's is negative under an optimistic one above 0.
					price = 0.075
				}
				day = append(day, order(w*k+i, publish, price))
			}
		}
		for _, realTime := range []bool{false, true} {
			src := NewGridSource(nil)
			e := diffEngine(t, mkt, fleet, 1, realTime, src)
			a := auditRows(t, e, src)
			got := e.RunBatchedScenario(day, nil, 30)
			want := diffEngine(t, mkt, fleet, 1, realTime, &ScanSource{}).RunBatchedScenario(day, nil, 30)
			diffResults(t, fmt.Sprintf("k=%d realTime=%v", k, realTime), want, got)
			auditIndex(t, fmt.Sprintf("k=%d realTime=%v", k, realTime), e)
			if a.windows != 2 || a.rows != 2*k || got.Served == 0 {
				t.Fatalf("k=%d realTime=%v: %+v, %d served; want 2 windows of %d rows", k, realTime, *a, got.Served, k)
			}
			if (k > 3) != (a.short > 0) {
				t.Fatalf("k=%d realTime=%v: %d rows with fewer than k positive margins", k, realTime, a.short)
			}
		}
	}
}

// TestBoundedRowsScoreFewer is TestBoundedPathScoresFewer for a batched
// day: Market.Dist calls from the first decision of one fixed day,
// indexed source both times, rows by topRow (fullRowsOnly) against rows
// by TopRow. Equal books, counts that repeat exactly, every entry's
// payload the engine's (auditIndex), and ceilings — a floor for the
// cells skipped — at what was measured when a window began to walk its
// rows at k = 1 before it builds a matching (closeBatchSparse). A contested window walks its
// rows twice, so the cells visited rose from 20 231 to 20 564, while the
// calls fell from 5 246 to 4 349, the exact scores from 1 810 to 1 352
// and the entries scanned from 55 663 to 54 311, and the cells skipped
// grew from 10 903 to 11 804. (Before the entries carried their way home
// from the bind there were 9 964 calls over the engine's life, and
// 11 474 before the cell walk.)
func TestBoundedRowsScoreFewer(t *testing.T) {
	cfg := trace.NewConfig(17, 300, 5000, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	day := func(bounded bool) (calls int, stats WalkStats, res Result) {
		mkt := cfg.Market
		mkt.Dist = func(a, b geo.Point) float64 {
			calls++
			return cfg.Market.Dist(a, b)
		}
		grid := NewGridSource(nil)
		var src CandidateSource = grid
		if !bounded {
			src = fullRowsOnly{src}
		}
		e := diffEngine(t, mkt, tr.Drivers, 1, false, src)
		res = countedDay(t, func() (*Stream, error) { return e.NewBatchedStream(60, BatchHungarian, nil) }, &calls, tr.Tasks)
		n, stats := calls, grid.WalkStats() // before the audit, which measures and queries
		auditIndex(t, fmt.Sprintf("bounded=%v", bounded), e)
		return n, stats, res
	}
	// The index's transitions over the day, the same whoever builds the
	// rows, with no sort after the bind's Load (513 before it); Shifted is
	// a ceiling, one entry an order (9 measured).
	index := spatial.Stats{Woken: 5109, Expired: 4909, Shifted: 300}
	full, none, want := day(false)
	if none != (WalkStats{Stats: none.Stats}) || !sameTransitions(none.Stats, index) {
		t.Errorf("the full rows counted %+v; want nothing on the bounded paths and the index's %+v", none, index)
	}
	bounded, stats, got := day(true)
	diffResults(t, "bounded rows", want, got)
	if again, stats2, _ := day(true); again != bounded || stats2 != stats {
		t.Errorf("%d Market.Dist calls and %+v, then %d and %+v on the same day", bounded, stats, again, stats2)
	}
	const ceiling = 4349
	most := WalkStats{CellsVisited: 20564, CellsSkipped: 11804, EntriesScanned: 54311, ExactScores: 1352}
	if want.Served == 0 || bounded > ceiling {
		t.Errorf("%d Market.Dist calls against the full rows' %d over %d served orders; want at most %d", bounded, full, want.Served, ceiling)
	}
	if stats.CellsVisited > most.CellsVisited || stats.EntriesScanned > most.EntriesScanned ||
		stats.ExactScores > most.ExactScores || stats.CellsSkipped < most.CellsSkipped {
		t.Errorf("%+v; want at most %+v, and at least that many cells skipped", stats, most)
	}
	if !sameTransitions(stats.Stats, index) {
		t.Errorf("the index counted %+v, want %+v", stats.Stats, index)
	}
	t.Logf("%d calls, full rows %d (%.1fx), %d orders, %+v", bounded, full, float64(full)/float64(bounded), len(tr.Tasks), stats)
}

// TestRoadRowsScoreFewer is the same count on a road market with a node
// table, over batched_network's own day at seed 27 in library form: the
// default 20×24 street grid, its router as both Market.Dist and
// Market.Batch, 10 000 drivers and 1 200 orders drawn for crow-fly — so
// that a road ride often cannot make its deadlines — in 60 s windows.
// Rows by topRow (fullRowsOnly) against rows by TopRow: equal
// books, counts that repeat exactly, every entry's payload the engine's,
// ceilings — a floor for the cells skipped — at the counts measured
// last, and the gate it was built on — of the drivers the index predicate passed, at most
// 15 % scored exactly. Most of the rest fall to the arrival bound
// (DeadlineSkips). The per-driver bound alone scored 8.6 % of 495 988
// reached (tested against the pickup deadline alone, 22.6 %; the planar
// bound, 55 %); stopping each walk at the first ring past the deadlines
// (marginWalk.past) cut the cells visited from 170 140 to 73 796 and the
// drivers reached to 291 052 — those no longer reached were, but for a
// dozen, drivers the arrival bound skipped — so the share is 14.6 % of
// what is left. Since every entry comes with her node and her way home
// (GridSource.place) a road cell's bound is finite from the first query:
// the cells skipped rose from 5 659 to 9 469, the entries scanned fell
// from 328 802 to 321 528 and the drivers reached from 288 262 to
// 282 866, and the exact scores stayed at 39 370.
func TestRoadRowsScoreFewer(t *testing.T) {
	rcfg := roadnet.DefaultGridConfig()
	g, err := roadnet.GenerateGrid(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	router := roadnet.NewRouter(g, rcfg.Box, 0)
	if table, _ := router.Table(); table == nil {
		t.Fatalf("the %d-node router has no table", g.NumNodes())
	}
	mkt := model.DefaultMarket()
	mkt.Dist, mkt.Batch = router.Dist, router
	fleet := trace.NewGenerator(trace.NewConfig(27, 1, 10000, trace.Hitchhiking)).GenerateDrivers()
	tasks := trace.NewGenerator(trace.NewConfig(28, 1200, 1, trace.Hitchhiking)).Generate(nil).Tasks
	day := func(bounded bool) (WalkStats, Result) {
		grid := NewGridSource(nil)
		var src CandidateSource = grid
		if !bounded {
			src = fullRowsOnly{src}
		}
		e := diffEngine(t, mkt, fleet, 1, false, src)
		res := e.RunBatchedScenario(tasks, nil, 60)
		auditIndex(t, fmt.Sprintf("bounded=%v", bounded), e)
		return grid.WalkStats(), res
	}
	none, want := day(false)
	if none != (WalkStats{Stats: none.Stats}) {
		t.Errorf("the full rows counted %+v on the bounded paths", none)
	}
	stats, got := day(true)
	diffResults(t, "bounded road rows", want, got)
	if again, _ := day(true); again != stats {
		t.Errorf("%+v, then %+v on the same day", stats, again)
	}
	most := WalkStats{CellsVisited: 73796, CellsSkipped: 9469, EntriesScanned: 321528, Reached: 282866, ExactScores: 39370}
	if want.Served == 0 || stats.DeadlineSkips == 0 {
		t.Fatalf("degenerate day: %d served, %+v", want.Served, stats)
	}
	if stats.CellsVisited > most.CellsVisited || stats.EntriesScanned > most.EntriesScanned || stats.Reached > most.Reached ||
		stats.ExactScores > most.ExactScores || stats.CellsSkipped < most.CellsSkipped {
		t.Errorf("%+v; want at most %+v, and at least that many cells skipped", stats, most)
	}
	if frac := float64(stats.ExactScores) / float64(stats.Reached); frac > 0.15 {
		t.Errorf("%d exact scores of %d drivers reached (%.1f %%); want at most 15 %%: %+v", stats.ExactScores, stats.Reached, 100*frac, stats)
	}
	t.Logf("%d orders, %d served; of the drivers reached %.1f %% scored exactly, %.1f %% skipped on the arrival bound: %+v",
		len(tasks), got.Served, 100*float64(stats.ExactScores)/float64(stats.Reached),
		100*float64(stats.DeadlineSkips)/float64(stats.Reached), stats)
}

// fuzzBox is the configured grid FuzzBoundedChoice binds, and
// fuzzMaxLat how far north of it a point may stand before polewardOf
// refuses it: the bound has to hold all the way up to there.
var (
	fuzzBox    = geo.PortoBox
	fuzzMaxLat = math.Acos(minCos(geo.NewGrid(geo.PortoBox, 1, 1))/1.05)*180/math.Pi - 1e-6
)

// fuzzInput hands out a fuzz input byte by byte, zeros once it runs
// dry. Everything is drawn from a byte, on purpose: coarse values make
// drivers stand on one another and orders start where drivers wait,
// which is where ties, zero distances and equal bounds live.
type fuzzInput []byte

func (in *fuzzInput) byte() float64 {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return float64(b)
}

// point is somewhere in the box three times out of four, else anywhere
// from 3° south of it to the poleward limit and 3° east or west.
func (in *fuzzInput) point() geo.Point {
	far, a, b := int(in.byte())%4 == 0, in.byte()/255, in.byte()/255
	if !far {
		return fuzzBox.Lerp(a, b)
	}
	return geo.Point{
		Lat: fuzzBox.MinLat - 3 + a*(fuzzMaxLat-fuzzBox.MinLat+3),
		Lon: fuzzBox.MinLon - 3 + b*(fuzzBox.MaxLon-fuzzBox.MinLon+6),
	}
}

// fuzzDay is a fuzz input written out by hand: bytes(head...) lays it out
// as FuzzBoundedChoice and FuzzBoundedRows read it, after the bytes each
// reads first. Every field is the byte the target decodes, so the two
// comments there are the key to the units.
type fuzzDay struct {
	spots      []fuzzSpot   // 2 to 6
	fleet      []fuzzDriver // up to 12 (choice) or 16 (rows)
	orders     []fuzzOrder  // up to 5 (choice) or 10 (rows)
	rows, cols byte         // of the grid, 1 to 6
}

type fuzzSpot struct {
	far  bool // outside the box: a and b then span 3° around it
	a, b byte // latitude and longitude, as 255ths of the span
}

type fuzzDriver struct {
	start    byte // minutes
	src, dst byte // spots
	shift    byte // End = Start + (1+shift) × 120 s
	speed    byte // index into {market's, 15, 30, 60, 120} km/h
}

type fuzzOrder struct {
	gap      byte // Publish = the order before's + gap × 30 s (choice) or × 2 s (rows)
	notice   byte // StartBy = Publish + (1+notice) × 60 s
	price    byte // eighths
	src, dst byte // spots
	slack    byte // EndBy = StartBy + (1+slack) × 120 s
}

func (d fuzzDay) bytes(head ...byte) []byte {
	out := append([]byte{}, head...)
	out = append(out, byte(len(d.spots)-2))
	for _, s := range d.spots {
		far := byte(1)
		if s.far {
			far = 0
		}
		out = append(out, far, s.a, s.b)
	}
	out = append(out, byte(len(d.fleet)-1))
	for _, f := range d.fleet {
		out = append(out, f.start, f.src, f.dst, f.shift, f.speed)
	}
	out = append(out, byte(len(d.orders)-1))
	for _, o := range d.orders {
		out = append(out, o.gap, o.notice, o.price, o.src, o.dst, o.slack)
	}
	return append(out, d.rows-1, d.cols-1)
}

// The named seeds. Each is a shape the walks' order or the cell bound
// could get wrong and random bytes rarely draw.
var (
	// runningTie is the fuzz finding that keeps RankArrival's walk in
	// driver order: everyone on one spot, drivers 1 and 2 free at 13 500 s,
	// driver 9 at 11 520 s, the rest after the pickup deadline. Nearest
	// draws once, when 2 ties the running minimum 1 set; a walk that came
	// to 9 first would skip both and draw nothing.
	runningTie = func() fuzzDay {
		d := fuzzDay{spots: []fuzzSpot{{a: 128, b: 128}, {a: 10, b: 10}}, rows: 4, cols: 4,
			orders: []fuzzOrder{{notice: 224, price: 80}}}
		for i := 0; i < 10; i++ {
			f := fuzzDriver{start: 255, shift: 30}
			switch i {
			case 1, 2:
				f.start = 225
			case 9:
				f.start = 192
			}
			d.fleet = append(d.fleet, f)
		}
		return d
	}()

	// ringBoundary stacks identical drivers either side of the line between
	// the pickup's ring 1 and ring 2 of a 6×6 grid (columns change at
	// 212.5/255), interleaved by id, everyone headed for the orders'
	// dropoff: ties within each stack, a near tie across the line, and a
	// cell bound that must not cut the farther stack off from the nearer.
	ringBoundary = func() fuzzDay {
		d := fuzzDay{spots: []fuzzSpot{{a: 128, b: 128}, {a: 128, b: 212}, {a: 128, b: 213}, {a: 40, b: 128}, {a: 85, b: 170}}, rows: 6, cols: 6}
		for i := 0; i < 12; i++ {
			d.fleet = append(d.fleet, fuzzDriver{src: byte(1 + i%2), dst: 3, shift: 200})
		}
		d.fleet[4].src, d.fleet[7].src = 4, 4 // two more on a corner where four cells meet
		for i := 0; i < 5; i++ {
			d.orders = append(d.orders, fuzzOrder{gap: byte(i % 2), notice: 40, price: 120, src: 0, dst: 3, slack: 30})
		}
		return d
	}()

	// clamped has its fastest driver wait 3° east of the box — clamped into
	// a border cell a ring or two from pickups she is 250 km from — for
	// orders that take her home, which is where margins are largest.
	clamped = func() fuzzDay {
		d := fuzzDay{spots: []fuzzSpot{{a: 100, b: 200}, {far: true, a: 128, b: 255}, {a: 150, b: 60}, {a: 100, b: 40}}, rows: 5, cols: 6}
		d.fleet = []fuzzDriver{
			{src: 2, dst: 3, shift: 250}, {src: 1, dst: 3, shift: 250, speed: 4}, {src: 0, dst: 0, shift: 250},
			{src: 2, dst: 2, shift: 250}, {src: 1, dst: 1, shift: 250, speed: 4}, {src: 0, dst: 3, shift: 250},
		}
		for i := 0; i < 4; i++ {
			d.orders = append(d.orders, fuzzOrder{gap: 1, notice: 250, price: 200, src: byte(i % 2 * 2), dst: 3, slack: 100})
		}
		return d
	}()

	// staleAggregate shares one cell between a driver with 250 km to go
	// home, whose shift ends four minutes into the day, and one who is
	// home already. The first order has both scored, so the cell's bound
	// is the long haul's; once she has retired it is stale — too high,
	// which only costs the scan that brings it down again. (Real-time
	// mode, so that a shift need not outlast the order's deadline.)
	staleAggregate = func() fuzzDay {
		d := fuzzDay{spots: []fuzzSpot{{a: 40, b: 40}, {far: true, a: 128, b: 255}, {a: 200, b: 200}, {a: 205, b: 205}}, rows: 6, cols: 6}
		d.fleet = []fuzzDriver{
			{src: 0, dst: 1, shift: 1}, {src: 0, dst: 0, shift: 250}, {src: 2, dst: 3, shift: 250}, {src: 3, dst: 2, shift: 250},
		}
		d.orders = []fuzzOrder{
			{notice: 60, price: 200, src: 0, dst: 2, slack: 100},
			{gap: 200, notice: 60, price: 200, src: 2, dst: 3, slack: 100},
			{gap: 1, notice: 60, price: 200, src: 3, dst: 0, slack: 100},
			{gap: 200, notice: 60, price: 200, src: 2, dst: 0, slack: 100},
		}
		return d
	}()
)

// churn is FuzzBoundedRows' tail for a seed: driver 1 joins at 2 s and
// driver 3 (modulo the fleet) retires at 402 s — each a driver, 1 + her
// index (0 for none), and a time in units of 2 s.
var churn = []byte{2, 1, 4, 201}

// fuzzMarket is the market of a fuzzed day: crow-fly, or in road mode a
// street grid over the fuzz box of 2 to 8 intersections a side, drawn
// from the next three bytes, whose router is both Market.Dist and
// Market.Batch. Every such graph has a node table, so the margin walks
// bound the road pickup leg and the arrival with it (roadLeg), and the
// reference scores the full list in two snapped batches. The day's
// spots come after it: in road mode every other one stands on the
// intersection nearest where it was drawn, so that a driver there has no
// access leg — the one term the table bound drops — and the bound is as
// tight as it gets.
func fuzzMarket(t *testing.T, road bool, in *fuzzInput) (model.Market, []geo.Point) {
	mkt := model.DefaultMarket()
	onNode := func(p geo.Point) geo.Point { return p }
	if road {
		cfg := roadnet.DefaultGridConfig()
		cfg.Box = fuzzBox
		cfg.Rows, cfg.Cols, cfg.Seed = 2+int(in.byte())%7, 2+int(in.byte())%7, int64(in.byte())
		g, err := roadnet.GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		router := roadnet.NewRouter(g, cfg.Box, 0)
		mkt.Dist, mkt.Batch = router.Dist, router
		onNode = func(p geo.Point) geo.Point { return g.Point(router.NearestNode(p)) }
	}
	spots := make([]geo.Point, 2+int(in.byte())%5)
	for i := range spots {
		if spots[i] = in.point(); i%2 == 0 {
			spots[i] = onNode(spots[i])
		}
	}
	return mkt, spots
}

// FuzzBoundedChoice aims at the admissibility of the bound: a small
// fleet on a handful of shared points (inside the grid's box and out to
// the polewardOf limit), arbitrary shifts and speeds, a few orders
// dispatched first so some drivers have moved and are locked, then one
// order — on crow-fly or on a small street grid (fuzzMarket). For both
// ranks the bounded list must be a sub-list of the scan's full one, and
// the chooser must take the same driver from either with the same
// number of RNG draws.
func FuzzBoundedChoice(f *testing.F) {
	f.Add([]byte{})
	f.Add(slices.Repeat([]byte{0xff}, 96))
	days := []fuzzDay{runningTie, ringBoundary, clamped, staleAggregate}
	for _, d := range days {
		f.Add(d.bytes(0)) // deadline mode
		f.Add(d.bytes(1)) // real-time mode
	}
	rng := rand.New(rand.NewSource(3))
	for range 6 {
		seed := make([]byte, 40+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
	}
	for _, d := range days {
		f.Add(d.bytes(2, 4, 5, 1)) // deadline mode, a 6×7 street grid
		f.Add(d.bytes(3, 0, 1, 2)) // real-time mode, a 2×3 street grid
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		mode := int(in.byte())
		realTime, road := mode%2 == 1, mode/2%2 == 1
		mkt, spots := fuzzMarket(t, road, &in)
		spot := func() geo.Point { return spots[int(in.byte())%len(spots)] }
		fleet := make([]model.Driver, 1+int(in.byte())%12)
		for i := range fleet {
			start := in.byte() * 60
			fleet[i] = model.Driver{ID: i, Source: spot(), Dest: spot(), Start: start, End: start + (1+in.byte())*120,
				SpeedKmh: []float64{0, 15, 30, 60, 120}[int(in.byte())%5]}
		}
		orders := make([]model.Task, 1+int(in.byte())%5)
		publish := 0.0
		for i := range orders {
			publish += in.byte() * 30
			startBy := publish + (1+in.byte())*60
			price := in.byte() / 8
			orders[i] = model.Task{ID: i, Publish: publish, Source: spot(), Dest: spot(),
				StartBy: startBy, EndBy: startBy + (1+in.byte())*120, Price: price, WTP: price}
		}

		src := NewGridSource(geo.NewGrid(fuzzBox, 1+int(in.byte())%6, 1+int(in.byte())%6))
		e := diffEngine(t, mkt, fleet, 1, realTime, src)
		st, err := e.NewStream(diffRandom{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		last := len(orders) - 1
		for _, order := range orders[:last] {
			if _, err := st.SubmitTask(order); err != nil {
				t.Fatal(err)
			}
		}

		order := orders[last]
		full := e.candidates(order, order.Publish, nil)
		if all := src.Contenders(order, order.Publish, 0, nil); !slices.Equal(all, full) {
			t.Fatalf("a rank the source cannot bound got %+v, not the full list %+v", all, full)
		}
		for _, d := range []Dispatcher{rankedMaxMargin{}, rankedNearest{}} {
			bounded := src.Contenders(order, order.Publish, d.RankedBy(), nil)
			rest := full
			for _, c := range bounded {
				at := slices.Index(rest, c)
				if at < 0 {
					t.Fatalf("%s: contender %+v is not (or not in order) in the full list %+v", d.Name(), c, full)
				}
				rest = rest[at+1:]
			}
			choose := func(list []Candidate) (driver int, draws uint64) {
				counter := newCountingSource(7)
				pick := -1
				if len(list) > 0 {
					pick = d.Choose(order, list, rand.New(counter))
				}
				if pick < 0 {
					return -1, counter.n
				}
				return list[pick].Driver, counter.n
			}
			wantDriver, wantDraws := choose(full)
			gotDriver, gotDraws := choose(bounded)
			if gotDriver != wantDriver || gotDraws != wantDraws {
				t.Fatalf("%s: driver %d after %d draws from the bounded list %+v, driver %d after %d draws from the full list %+v",
					d.Name(), gotDriver, gotDraws, bounded, wantDriver, wantDraws, full)
			}
		}
		auditIndex(t, "after the queries", e)
	})
}

// FuzzBoundedRows is FuzzBoundedChoice for a window's rows: the same
// small fleets on shared points, on crow-fly or on a small street grid
// (fuzzMarket), a batched day of a few orders whose earlier windows move
// and lock drivers for the later ones, a driver who joins and one who
// retires (churn, drawn after the grid: none from a dry input), and at
// every window each order's bounded row held bitwise to the reference
// row (auditRows) at the window's own k and at an arbitrary one; then
// the day's books to the scan's and every entry to the engine
// (auditIndex). testdata/fuzz/FuzzBoundedRows/nodeTie is the fuzzer's
// find against a table bound raised by 2 %: on an 8×8 grid six drivers
// share one intersection, two of them tie on margin for a row of one,
// and the raised bound skipped the lower id.
func FuzzBoundedRows(f *testing.F) {
	f.Add([]byte{})
	f.Add(slices.Repeat([]byte{0xff}, 96))
	days, ks := []fuzzDay{ringBoundary, clamped, staleAggregate}, []byte{0, 2, 7} // rows of 1, 3 and 8
	for _, d := range days {
		for _, k := range ks {
			f.Add(d.bytes(0, 0, k)) // deadline mode, 1 s windows
			f.Add(d.bytes(1, 0, k)) // real-time mode, 1 s windows
			f.Add(d.bytes(1, 5, k)) // real-time mode, 21 s windows
		}
	}
	rng := rand.New(rand.NewSource(4))
	for range 6 {
		seed := make([]byte, 40+rng.Intn(160))
		rng.Read(seed)
		f.Add(seed)
	}
	for _, d := range days {
		for _, k := range ks {
			f.Add(d.bytes(2, 5, k, 4, 5, 1)) // deadline mode, 21 s windows, a 6×7 street grid
			f.Add(d.bytes(3, 0, k, 1, 0, 3)) // real-time mode, 1 s windows, a 3×2 street grid
		}
		f.Add(append(d.bytes(1, 0, 2), churn...))          // real-time mode, 1 s windows
		f.Add(append(d.bytes(2, 5, 0, 4, 5, 1), churn...)) // deadline mode, 21 s windows, a 6×7 street grid
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		mode := int(in.byte())
		realTime, road := mode%2 == 1, mode/2%2 == 1
		window := 1 + in.byte()*4
		k := 1 + int(in.byte())%8
		mkt, spots := fuzzMarket(t, road, &in)
		spot := func() geo.Point { return spots[int(in.byte())%len(spots)] }
		fleet := make([]model.Driver, 1+int(in.byte())%16)
		for i := range fleet {
			start := in.byte() * 60
			fleet[i] = model.Driver{ID: i, Source: spot(), Dest: spot(), Start: start, End: start + (1+in.byte())*120,
				SpeedKmh: []float64{0, 15, 30, 60, 120}[int(in.byte())%5]}
		}
		orders := make([]model.Task, 1+int(in.byte())%10)
		publish := 0.0
		for i := range orders {
			publish += in.byte() * 2
			startBy := publish + (1+in.byte())*60
			price := in.byte() / 8
			orders[i] = model.Task{ID: i, Publish: publish, Source: spot(), Dest: spot(),
				StartBy: startBy, EndBy: startBy + (1+in.byte())*120, Price: price, WTP: price}
		}

		src := NewGridSource(geo.NewGrid(fuzzBox, 1+int(in.byte())%6, 1+int(in.byte())%6))
		var events []model.MarketEvent
		for _, kind := range []model.EventKind{model.EventJoin, model.EventRetire} {
			if who := int(in.byte()); who > 0 {
				events = append(events, model.MarketEvent{At: in.byte() * 2, Kind: kind, Driver: (who - 1) % len(fleet)})
			}
		}
		e := diffEngine(t, mkt, fleet, 1, realTime, src)
		auditRows(t, e, src, k)
		got := e.RunBatchedScenario(orders, events, window)
		want := diffEngine(t, mkt, fleet, 1, realTime, &ScanSource{}).RunBatchedScenario(orders, events, window)
		diffResults(t, "fuzzed batched day", want, got)
		auditIndex(t, "fuzzed batched day", e)
	})
}
