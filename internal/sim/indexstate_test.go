package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/trace"
)

// The tests in this file aim at the states the time-aware index adds —
// entries parked until a query's deadline overtakes them, entries
// expired once the run's clock passes their shift end — on the paths
// where they could go wrong: a run whose decision times jump around, a
// restore that builds the index in the middle of the day, a fleet that
// grows — faster, or further north, than the one the index was built
// over — and the steady-state query that must not allocate.

// TestByValueSourcesMatchScan: RunByValue decides orders in price
// order, so the decision time and the pickup deadline of successive
// queries go up and down across the whole day. The index may wake
// lazily but must never expire, and the indexed source still has to
// agree with the scan bit for bit.
func TestByValueSourcesMatchScan(t *testing.T) {
	seeds := []int64{61, 62, 63}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 200, 90, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		for _, realTime := range []bool{false, true} {
			for _, d := range []Dispatcher{diffMaxMargin{}, diffNearest{}} {
				run := func(e *Engine, d Dispatcher) Result {
					res := e.RunByValue(tr.Tasks, d)
					if e.timeKeyed {
						t.Fatal("a by-value run told its sources the clock is monotone")
					}
					if res.Served == 0 {
						t.Fatalf("seed %d: nothing served; the comparison is empty", seed)
					}
					return res
				}
				diffForms(t, fmt.Sprintf("by-value seed=%d rt=%v", seed, realTime), cfg.Market, tr.Drivers, seed, realTime, nil, d, run)
			}
		}
	}
}

// TestRestoreMidDayMatchesScan: RestoreStream binds the source afresh
// with the clock far past the horizon a day opens with — most of the
// fleet has retired, some of it is locked well into the future. The
// restored run on the indexed source must finish with the books of a
// scan run that was never interrupted.
func TestRestoreMidDayMatchesScan(t *testing.T) {
	cfg := trace.NewConfig(71, 260, 80, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.DefaultChurn(5, 0.3, 0.3))
	feed, fleet := buildFeed(tr.Tasks, events)

	// nil is the batched day. The instant day's reference is the plain
	// chooser on the scan; both of its forms restore on the index.
	for _, d := range []Dispatcher{nil, diffNearest{}, rankedNearest{}} {
		batched := d == nil
		open := func(src CandidateSource, d Dispatcher) (*Engine, *Stream) {
			e, err := New(cfg.Market, tr.Drivers, 9)
			if err != nil {
				t.Fatal(err)
			}
			e.SetCandidateSource(src)
			var st *Stream
			if batched {
				st, err = e.NewBatchedStream(60, BatchHungarian, fleet)
			} else {
				st, err = e.NewStream(d, fleet)
			}
			if err != nil {
				t.Fatal(err)
			}
			return e, st
		}
		_, base := open(&ScanSource{}, diffNearest{})
		applyItems(t, base, tr.Tasks, feed)
		want, err := base.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{len(feed) * 6 / 10, len(feed) * 9 / 10} {
			e1, st := open(NewGridSource(nil), d)
			applyItems(t, st, tr.Tasks, feed[:cut])
			auditIndex(t, "at the cut", e1)
			snap, err := st.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			e2, err := New(cfg.Market, tr.Drivers, 9)
			if err != nil {
				t.Fatal(err)
			}
			e2.SetCandidateSource(NewGridSource(nil))
			var restored *Stream
			if batched {
				restored, err = e2.RestoreStream(snap, nil, 60)
			} else {
				restored, err = e2.RestoreStream(snap, d, 0)
			}
			if err != nil {
				t.Fatalf("cut %d: RestoreStream: %v", cut, err)
			}
			auditIndex(t, "restored", e2)
			applyItems(t, restored, tr.Tasks, feed[cut:])
			got, err := restored.Finish()
			if err != nil {
				t.Fatal(err)
			}
			auditIndex(t, "restored and finished", e2)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("batched=%v %T cut %d: restored books diverge from the uninterrupted scan: served %d/%d revenue %.9f/%.9f",
					batched, d, cut, want.Served, got.Served, want.Revenue, got.Revenue)
			}
		}
	}
}

// TestAddedDriverFasterThanFleet: the indexed source sizes its
// reachability radius by the fastest driver it knows. A driver added
// mid-day who is faster than everyone the source was bound with, and
// who can make a pickup only because she is, must widen that radius.
func TestAddedDriverFasterThanFleet(t *testing.T) {
	mkt := model.DefaultMarket() // 30 km/h
	base := geo.Point{Lat: 41.15, Lon: -8.61}
	at := func(dlat, dlon float64) geo.Point { return geo.Point{Lat: base.Lat + dlat, Lon: base.Lon + dlon} }
	// The bound fleet idles ~11 km north of the demand: 22 minutes away.
	slow := []model.Driver{
		{ID: 0, Source: at(0.1, 0), Dest: at(0.1, 0), Start: 0, End: 20000},
		{ID: 1, Source: at(0.1, 0.01), Dest: at(0.1, 0.01), Start: 0, End: 20000},
	}
	// The newcomer waits at the same distance but drives four times as fast.
	fast := model.Driver{ID: 2, Source: at(0.1, 0.005), Dest: at(0.1, 0.005), Start: 0, End: 20000, SpeedKmh: 120}
	order := model.Task{ID: 0, Publish: 1000, Source: base, Dest: at(0.01, 0.01),
		StartBy: 1000 + 8*60, EndBy: 1000 + 3600, Price: 30, WTP: 40}

	for name, col := range map[string]struct {
		src CandidateSource
		d   Dispatcher
	}{
		"scan":            {&ScanSource{}, diffMaxMargin{}},
		"indexed":         {NewGridSource(nil), diffMaxMargin{}},
		"bounded margin":  {NewGridSource(nil), rankedMaxMargin{}},
		"bounded arrival": {NewGridSource(nil), rankedNearest{}},
	} {
		e, err := New(mkt, slow, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCandidateSource(col.src)
		st, err := e.NewStream(col.d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AdvanceTo(900); err != nil {
			t.Fatal(err)
		}
		idx, err := st.AddDriver(fast, 900)
		if err != nil {
			t.Fatalf("%s: AddDriver: %v", name, err)
		}
		dec, err := st.SubmitTask(order)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Assigned || dec.Driver != idx {
			t.Errorf("%s: the fast newcomer was not found: %+v", name, dec)
		}
		auditIndex(t, name, e)
	}
}

// TestAddedDriversPolewardOfGrid: the index scales longitudes by the
// smallest cosine over the grid it was bound with, which understates
// east-west distances only at latitudes near the grid's. Half of this
// day's fleet is announced mid-day 20° north of the half the source was
// bound over, where the same degrees of longitude are two thirds the
// kilometres: a source that kept the southern scale for them would
// prune northern drivers who can make their pickups. The streamed day
// must settle the scan's books bit for bit, northern rides included.
func TestAddedDriversPolewardOfGrid(t *testing.T) {
	gen := func(seed int64, dLat float64) model.Trace {
		cfg := trace.NewConfig(seed, 160, 120, trace.Hitchhiking)
		cfg.PickupWindowMin = 8 * 60 // radii of 4–8 km: wide enough to lose someone
		cfg.PickupWindowMax = 16 * 60
		tr := trace.NewGenerator(cfg).Generate(nil)
		for i := range tr.Drivers {
			tr.Drivers[i].Source.Lat += dLat
			tr.Drivers[i].Dest.Lat += dLat
		}
		for i := range tr.Tasks {
			tr.Tasks[i].Source.Lat += dLat
			tr.Tasks[i].Dest.Lat += dLat
		}
		return tr
	}
	south, north := gen(91, 0), gen(92, 20)
	tasks := slices.Concat(south.Tasks, north.Tasks)
	slices.SortStableFunc(tasks, func(a, b model.Task) int { return cmp.Compare(a.Publish, b.Publish) })
	const announced = 6 * 3600.0

	day := func(src CandidateSource, d Dispatcher) Result {
		e, err := New(model.DefaultMarket(), south.Drivers, 3)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCandidateSource(src)
		st, err := e.NewStream(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		joined := false
		for _, task := range tasks {
			if !joined && task.Publish >= announced {
				joined = true
				if err := st.AdvanceTo(announced); err != nil {
					t.Fatal(err)
				}
				for _, d := range north.Drivers {
					if _, err := st.AddDriver(d, announced); err != nil {
						t.Fatalf("AddDriver: %v", err)
					}
				}
			}
			if _, err := st.SubmitTask(task); err != nil {
				t.Fatalf("SubmitTask: %v", err)
			}
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		auditIndex(t, "fleet announced 20° north of the bound grid", e)
		return res
	}
	// diffRandom draws among all candidates: losing any one shows. The
	// two ranked choosers bound their rank in the projection of the grid
	// the source laid out again: a bound kept from the southern one would
	// skip northern winners.
	for _, d := range []Dispatcher{diffRandom{}, diffMaxMargin{}, diffNearest{}} {
		scan := day(&ScanSource{}, d)
		northern := 0
		for _, n := range scan.PerDriverTasks[len(south.Drivers):] {
			northern += n
		}
		if northern == 0 {
			t.Fatal("the scan gave the northern drivers nothing; the comparison is empty")
		}
		for _, form := range forms(d) {
			diffResults(t, "fleet announced 20° north of the bound grid, "+form.Name(), scan, day(NewGridSource(nil), form))
		}
	}
}

// TestAddedDriverPolewardOfStaticGridPanics: a configured grid cannot
// be laid out again, so a newcomer it cannot cover is refused the way
// Bind refuses a fleet it cannot cover.
func TestAddedDriverPolewardOfStaticGridPanics(t *testing.T) {
	porto := geo.PortoBox.Center()
	e, err := New(model.DefaultMarket(), []model.Driver{{ID: 0, Source: porto, Dest: porto, Start: 0, End: 7200}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCandidateSource(NewGridSource(geo.NewGrid(geo.PortoBox, 8, 8)))
	st, err := e.NewStream(diffMaxMargin{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a driver 20° north of a configured Porto grid was indexed without a word")
		}
	}()
	helsinki := geo.Point{Lat: 60.17, Lon: 24.94}
	st.AddDriver(model.Driver{ID: 1, Source: helsinki, Dest: helsinki, Start: 0, End: 7200}, 0)
}

// TestSelectTopKeepsTheSortedTop: the quickselect must keep exactly the
// set a full sort under the same order keeps, for every k.
func TestSelectTopKeepsTheSortedTop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		row := make([]Candidate, 2+rng.Intn(60))
		for i := range row {
			// Few distinct margins, so the driver tie-break decides often.
			row[i] = Candidate{Driver: i, Margin: float64(rng.Intn(6))}
		}
		k := 1 + rng.Intn(len(row)-1)
		want := slices.Clone(row)
		slices.SortFunc(want, func(a, b Candidate) int {
			if ranksBefore(a, b) {
				return -1
			}
			return 1
		})
		want = want[:k]
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		selectTop(row, k)
		got := row[:k]
		byDriver := func(a, b Candidate) int { return a.Driver - b.Driver }
		slices.SortFunc(got, byDriver)
		slices.SortFunc(want, byDriver)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, k=%d of %d: kept %v, a sort keeps %v", trial, k, len(row), got, want)
		}
	}
}

// TestCandidatesZeroAllocSteadyState is the candidate path's
// counterpart of matching's TestSparseSolverZeroAllocSteadyState: on a
// fleet whose shifts start and end all day long, a query stream that
// moves the clock forward — so every query wakes the drivers who came
// on shift and expires those who left — allocates nothing once the
// scratch buffers have seen a busy hour. That holds for the full list,
// for the bounded one under either rank, and for a window's bounded row.
func TestCandidatesZeroAllocSteadyState(t *testing.T) {
	queries := map[string]func(*GridSource, model.Task, float64, []Candidate) []Candidate{
		"full list": (*GridSource).Candidates,
		"bounded by margin": func(s *GridSource, task model.Task, now float64, buf []Candidate) []Candidate {
			return s.Contenders(task, now, RankMargin, buf)
		},
		"bounded by arrival": func(s *GridSource, task model.Task, now float64, buf []Candidate) []Candidate {
			return s.Contenders(task, now, RankArrival, buf)
		},
		"bounded row": func(s *GridSource, task model.Task, now float64, buf []Candidate) []Candidate {
			return s.TopRow(task, now, 4, buf)
		},
	}
	for name, ask := range queries {
		rng := rand.New(rand.NewSource(8))
		const n, shift = 3000, 7000.0
		fleet := make([]model.Driver, n)
		for i := range fleet {
			p := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
			start := rng.Float64() * 60000
			fleet[i] = model.Driver{ID: i, Source: p, Dest: p, Start: start, End: start + shift}
		}
		e, err := New(model.DefaultMarket(), fleet, 1)
		if err != nil {
			t.Fatal(err)
		}
		src := NewGridSource(nil)
		e.SetCandidateSource(src)
		if _, err := e.NewStream(diffMaxMargin{}, nil); err != nil {
			t.Fatal(err)
		}

		now := 0.0
		buf := make([]Candidate, 0, n)
		query := func() {
			now += 45
			p := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
			buf = ask(src, model.Task{Publish: now, Source: p, Dest: geo.PortoBox.Center(),
				StartBy: now + 900, EndBy: now + 4000, Price: 20}, now, buf[:0])
		}
		for now < 2*shift { // warm-up: the on-shift fleet reaches its steady size
			query()
		}
		// The measured stretch must see the fleet turn over: some driver
		// whose shift began after the warm-up is a candidate during it.
		woken := false
		allocs := testing.AllocsPerRun(600, func() {
			query()
			for _, c := range buf {
				woken = woken || fleet[c.Driver].Start > 2*shift
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations per warm query", name, allocs)
		}
		if !woken {
			t.Fatalf("%s: no driver who started during the measured stretch was ever a candidate", name)
		}
	}
}
