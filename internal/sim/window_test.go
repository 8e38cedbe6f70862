package sim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/trace"
)

// These tests are the sparse window pipeline's correctness wall. The
// sparse solve (closeBatchSparse) must commit exactly
// what the dense oracle (closeBatchDense in
// dense_test.go) would have committed — same assignments, same
// rejections, bit-identical Result — across window lengths, candidate
// sources and dynamic churn/cancellation workloads; and the batch drain and the
// streaming replay must agree, whatever the deprecated
// Engine.MatchWorkers is set to.

// runBatchedWith runs one batched scenario on a fresh engine in the
// given window configuration.
func runBatchedWith(t *testing.T, cfg trace.Config, drivers []model.Driver, tasks []model.Task,
	events []model.MarketEvent, window float64, indexed bool, dense bool) Result {
	t.Helper()
	e, err := New(cfg.Market, drivers, 7)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCandidateSource(sourceOf(indexed))
	if dense {
		e.windowOracle = e.closeBatchDense
	}
	return e.RunBatchedScenario(tasks, events, window)
}

// sourceOf is the indexed source, or the scan it is held to.
func sourceOf(indexed bool) CandidateSource {
	if indexed {
		return NewGridSource(nil)
	}
	return &ScanSource{}
}

// TestSparseWindowsMatchDenseOracle sweeps randomized days — quiet and
// churning — and asserts the sparse component path reproduces the dense
// oracle's Result bit for bit under several window lengths and both the
// scan and indexed candidate sources.
func TestSparseWindowsMatchDenseOracle(t *testing.T) {
	seeds := []int64{71, 72, 73, 74}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 140, 50, trace.Hitchhiking)
		cfg.PickupWindowMin = 8 * 60 // give batches room to form
		cfg.PickupWindowMax = 16 * 60
		tr := trace.NewGenerator(cfg).Generate(nil)
		events := trace.WithChurn(tr, trace.ChurnConfig{
			Seed: seed + 500, JoinFraction: 0.3, RetireFraction: 0.3, CancelFraction: 0.25,
		})
		for _, window := range []float64{20, 60, 240} {
			for _, indexed := range []bool{false, true} {
				for _, evs := range map[string][]model.MarketEvent{"quiet": nil, "churn": events} {
					dense := runBatchedWith(t, cfg, tr.Drivers, tr.Tasks, evs, window, indexed, true)
					sparse := runBatchedWith(t, cfg, tr.Drivers, tr.Tasks, evs, window, indexed, false)
					if !reflect.DeepEqual(dense, sparse) {
						t.Errorf("seed=%d window=%g indexed=%v events=%d: sparse diverged from dense oracle\ndense:  served=%d rejected=%d cancelled=%d revenue=%.9f\nsparse: served=%d rejected=%d cancelled=%d revenue=%.9f",
							seed, window, indexed, len(evs),
							dense.Served, dense.Rejected, dense.Cancelled, dense.Revenue,
							sparse.Served, sparse.Rejected, sparse.Cancelled, sparse.Revenue)
					}
				}
			}
		}
	}
}

// TestWindowWorkerIndependence pins the deprecated Engine.MatchWorkers
// (the window worker pool it sized is gone; only the frozen benchmark/
// still sets it): batched results — from the batch drain and from a
// batched stream replay — are bit-identical with the field set and left
// alone, over {scan, indexed} on churn/cancellation traces.
func TestWindowWorkerIndependence(t *testing.T) {
	seeds := []int64{81, 82}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 150, 60, trace.Hitchhiking)
		cfg.PickupWindowMin = 8 * 60
		cfg.PickupWindowMax = 16 * 60
		tr := trace.NewGenerator(cfg).Generate(nil)
		events := trace.WithChurn(tr, trace.ChurnConfig{
			Seed: seed + 900, JoinFraction: 0.3, RetireFraction: 0.3, CancelFraction: 0.25,
		})
		base := runBatchedWith(t, cfg, tr.Drivers, tr.Tasks, events, 45, false, false)
		for _, indexed := range []bool{false, true} {
			for _, workers := range []int{0, 4} {
				label := fmt.Sprintf("seed=%d indexed=%v MatchWorkers=%d", seed, indexed, workers)
				se, err := New(cfg.Market, tr.Drivers, 7)
				if err != nil {
					t.Fatal(err)
				}
				se.SetCandidateSource(sourceOf(indexed))
				se.MatchWorkers = workers
				if got := se.RunBatchedScenario(tr.Tasks, events, 45); !reflect.DeepEqual(base, got) {
					t.Errorf("%s: batch drain diverged from the scan", label)
				}
				streamed := replayThroughBatchedStream(t, se, 45, tr.Tasks, events)
				if !reflect.DeepEqual(base, streamed) {
					t.Errorf("%s: batched stream replay diverged from the scan", label)
				}
			}
		}
	}
}

// TestEngineSpawnsNoGoroutines: the engine is one goroutine by design —
// the caller's. A batched 2 000-driver day leaves the process's
// goroutine count where it was, at every window close and at the end,
// and no non-test file of this package or of internal/matching holds a
// go statement or imports sync or sync/atomic, so a worker pool cannot
// come back unnoticed.
func TestEngineSpawnsNoGoroutines(t *testing.T) {
	cfg := trace.NewConfig(83, 600, 2000, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	e, err := New(cfg.Market, tr.Drivers, 7)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCandidateSource(NewGridSource(nil))
	e.MatchWorkers = 4 // deprecated and ignored; sized a pool once
	st, err := e.NewBatchedStream(60, BatchHungarian, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	windows := 0
	st.SetBatchCloseHandler(func(BatchStats) {
		windows++
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("window %d closed with %d goroutines, the day began with %d", windows, n, before)
		}
	})
	for _, task := range tr.Tasks {
		if _, err := st.SubmitTask(task); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if windows == 0 || res.Served == 0 {
		t.Fatalf("degenerate day: %d windows, %d served", windows, res.Served)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("the day ended with %d goroutines, it began with %d", n, before)
	}

	for _, dir := range []string{".", filepath.Join("..", "matching")} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, imp := range file.Imports {
					if imp.Path.Value == `"sync"` || imp.Path.Value == `"sync/atomic"` {
						t.Errorf("%s imports %s", name, imp.Path.Value)
					}
				}
				ast.Inspect(file, func(n ast.Node) bool {
					if _, spawn := n.(*ast.GoStmt); spawn {
						t.Errorf("%s holds a go statement", name)
					}
					return true
				})
			}
		}
	}
}

// TestWindowSolversAgreePerWindow audits every window of batched days
// at the decision point itself: the dense matrix and the sparse CSR are
// rebuilt from identical candidate queries and solved by both kernels,
// and the two optima must carry exactly the same total weight. Where
// the assignments differ the window holds several exact optima — a real
// degeneracy of the workload: orders lying on a driver's route home
// cost exactly zero margin for every such driver (the box-clamped
// boundary makes whole windows collinear), so distinct drivers tie
// bitwise — and each kernel commits its own canonical optimum. The
// audit asserts those divergences never trade away weight, and the
// Result-level dense-vs-sparse tests above pin bit-identity whenever
// the optimum is unique.
func TestWindowSolversAgreePerWindow(t *testing.T) {
	seeds := []int64{27, 101}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 600, 2000, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		e, err := New(cfg.Market, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCandidateSource(NewGridSource(nil))
		windows, ties := 0, 0
		e.auditHook = func(r *eventRun, batch []int, decisionAt float64) {
			windows++
			w, _, union := buildDenseWindow(e, r, batch, decisionAt)
			dense, err := matching.Hungarian(w)
			if err != nil {
				t.Fatal(err)
			}
			sp := matching.Sparse{Rows: len(batch), Cols: len(union), RowPtr: []int{0}}
			for bi := range batch {
				for j := 0; j < len(union); j++ {
					if w[bi][j] > 0 && w[bi][j] > matching.Forbidden {
						sp.Col = append(sp.Col, j)
						sp.W = append(sp.W, w[bi][j])
					}
				}
				sp.RowPtr = append(sp.RowPtr, len(sp.Col))
			}
			sparse, err := matching.SparseHungarian(sp)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(dense.Weight-sparse.Weight) > 1e-9 {
				t.Errorf("window at %.1f (batch %d, union %d): weight dense %.15f vs sparse %.15f",
					decisionAt, len(batch), len(union), dense.Weight, sparse.Weight)
			}
			if !reflect.DeepEqual(dense.ColOf, sparse.ColOf) {
				ties++
			}
		}
		res := e.RunBatchedScenario(tr.Tasks, nil, 180)
		if windows == 0 {
			t.Fatalf("seed=%d: no windows audited", seed)
		}
		if res.Served+res.Rejected != len(tr.Tasks) {
			t.Fatalf("seed=%d: books do not balance", seed)
		}
		t.Logf("seed=%d: %d windows audited, %d with tied optima", seed, windows, ties)
	}
}

// TestWindowScratchSurvivesFleetGrowth: the pooled driver-indexed maps
// must follow AddDriver mid-stream — a window closed after the fleet
// grew sees candidates whose driver index exceeds the fleet size the
// scratch was first sized for.
func TestWindowScratchSurvivesFleetGrowth(t *testing.T) {
	cfg := trace.NewConfig(91, 40, 6, trace.Hitchhiking)
	cfg.PickupWindowMin = 8 * 60
	cfg.PickupWindowMax = 16 * 60
	tr := trace.NewGenerator(cfg).Generate(nil)

	e, err := New(cfg.Market, tr.Drivers[:3], 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.NewBatchedStream(30, BatchHungarian, nil)
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	st.SetDecisionHandler(func(TaskDecision) { decided++ })
	for i, task := range tr.Tasks {
		if i == len(tr.Tasks)/2 {
			// Grow the fleet mid-day: the remaining drivers join at the
			// stream's current time and are candidates from then on.
			for _, d := range tr.Drivers[3:] {
				if _, err := st.AddDriver(d, st.Now()); err != nil {
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
		t.Fatalf("Finish: %v", err)
	}
	if decided != len(tr.Tasks) {
		t.Fatalf("decided %d of %d tasks", decided, len(tr.Tasks))
	}
	if res.Served+res.Rejected != len(tr.Tasks) {
		t.Fatalf("books do not balance after fleet growth: served %d + rejected %d != %d",
			res.Served, res.Rejected, len(tr.Tasks))
	}
}

// windowDecision is one decision a window close reported, with the
// committed driver's margin for the order: scored over the full list
// before the window committed, which is the state the window decided in.
type windowDecision struct {
	TaskDecision
	Margin float64
}

// sameDecisions reports whether two runs decided the same orders in the
// same hook order, each with the same driver, pickup time and margin,
// bitwise.
func sameDecisions(a, b []windowDecision) bool {
	return slices.EqualFunc(a, b, func(x, y windowDecision) bool {
		return x.Task == y.Task && x.Assigned == y.Assigned && x.Driver == y.Driver &&
			math.Float64bits(x.PickupAt) == math.Float64bits(y.PickupAt) &&
			math.Float64bits(x.At) == math.Float64bits(y.At) &&
			math.Float64bits(x.Margin) == math.Float64bits(y.Margin)
	})
}

// windowDecisions runs the batched day a fuzz input describes twice:
// once as production decides it, once with every window forced through
// the matching (matchWindow, installed as the window oracle). It fails t
// unless the decisions and the books are the same, and reports how many
// windows production found contested and how many rows tied at their
// best margin. The input is read as FuzzBoundedRows reads it, without
// the k byte: the mode (bit 0 real time, bit 1 a street grid), the
// window, the market (fuzzMarket), the fleet, the orders and the grid.
func windowDecisions(t *testing.T, data []byte) (contested, tiedRows int) {
	in := fuzzInput(data)
	mode := int(in.byte())
	realTime, road := mode%2 == 1, mode/2%2 == 1
	window := 1 + in.byte()*4
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
	rows, cols := 1+int(in.byte())%6, 1+int(in.byte())%6

	run := func(forced bool) ([]windowDecision, Result, int, int) {
		e := diffEngine(t, mkt, fleet, 1, realTime, NewGridSource(geo.NewGrid(fuzzBox, rows, cols)))
		if forced {
			e.windowOracle = e.matchWindow
		}
		margin := map[[2]int]float64{} // {task, driver} -> margin at the close
		contested, tied := 0, 0
		e.auditHook = func(r *eventRun, batch []int, at float64) {
			for _, ti := range batch {
				best, n := 0.0, 0
				for _, c := range e.candidates(r.tasks[ti], at, nil) {
					margin[[2]int{ti, c.Driver}] = c.Margin
					switch {
					case c.Margin > best:
						best, n = c.Margin, 1
					case c.Margin == best && best > 0:
						n++
					}
				}
				if n > 1 {
					tied++
				}
			}
		}
		st, err := e.NewBatchedStream(window, BatchHungarian, nil)
		if err != nil {
			t.Fatal(err)
		}
		var decided []windowDecision
		st.SetDecisionHandler(func(d TaskDecision) {
			decided = append(decided, windowDecision{d, margin[[2]int{d.Task, d.Driver}]})
		})
		st.SetBatchCloseHandler(func(bs BatchStats) {
			if bs.Contested {
				contested++
			}
		})
		for _, order := range orders {
			if _, err := st.SubmitTask(order); err != nil {
				t.Fatal(err)
			}
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		auditIndex(t, fmt.Sprintf("forced=%v", forced), e)
		return decided, res, contested, tied
	}
	got, gotRes, contested, tiedRows := run(false)
	want, wantRes, _, _ := run(true)
	if !sameDecisions(got, want) {
		t.Fatalf("the shortcut decided\n%+v\nthe matching on every window\n%+v", got, want)
	}
	diffResults(t, "shortcut against the matching on every window", wantRes, gotRes)
	return contested, tiedRows
}

// The named seeds of FuzzWindowDecisions, laid out as windowDecisions
// reads them after the mode and window bytes.
var (
	// sharedBest has two orders in one window at one pickup, and one
	// driver waiting beside it whom both rank first: the window is
	// contested, and the matching gives her to one and a farther driver
	// to the other.
	sharedBest = fuzzDay{
		spots: []fuzzSpot{{a: 128, b: 128}, {a: 128, b: 140}, {a: 128, b: 200}, {a: 60, b: 128}},
		fleet: []fuzzDriver{
			{src: 2, dst: 3, shift: 200}, {src: 1, dst: 3, shift: 200}, {src: 2, dst: 3, shift: 200},
		},
		orders: []fuzzOrder{
			{notice: 60, price: 160, src: 0, dst: 3, slack: 60},
			{notice: 60, price: 160, src: 0, dst: 3, slack: 60},
		},
		rows: 4, cols: 4,
	}
	// marginTie has two orders in one window at two pickups, each with
	// two identical drivers waiting on it, interleaved by id: every row
	// ties at its best margin, the lower id ranks first (1 at the first
	// pickup, 0 at the second), no driver is first twice, and the
	// shortcut commits what the matching's lowest-column tie-break
	// would.
	marginTie = fuzzDay{
		spots: []fuzzSpot{{a: 128, b: 128}, {a: 40, b: 220}, {a: 200, b: 60}},
		fleet: []fuzzDriver{
			{src: 1, dst: 2, shift: 200}, {src: 0, dst: 2, shift: 200}, {src: 1, dst: 2, shift: 200}, {src: 0, dst: 2, shift: 200},
		},
		orders: []fuzzOrder{
			{notice: 60, price: 200, src: 0, dst: 2, slack: 60},
			{notice: 60, price: 200, src: 1, dst: 2, slack: 60},
		},
		rows: 3, cols: 3,
	}
)

// FuzzWindowDecisions holds closeBatchSparse's shortcut — a window whose
// orders each rank a different driver first commits those drivers with
// no matching — to the matching it stands in for (windowDecisions): the
// same small fleets on shared points as FuzzBoundedRows, on crow-fly or
// on a small street grid, a few windows whose earlier ones move and lock
// drivers for the later ones, and every decision of every window
// compared bitwise with the run that solves each window by the matching.
// The named seeds sharedBest and marginTie aim at the two ways the
// shortcut can go wrong: taking it when two orders share a best driver,
// and breaking a margin tie another way than the solver.
func FuzzWindowDecisions(f *testing.F) {
	f.Add([]byte{})
	f.Add(slices.Repeat([]byte{0xff}, 96))
	for _, d := range []fuzzDay{sharedBest, marginTie, ringBoundary, clamped, staleAggregate} {
		f.Add(d.bytes(0, 5))          // deadline mode, 21 s windows
		f.Add(d.bytes(1, 0))          // real-time mode, 1 s windows
		f.Add(d.bytes(2, 5, 4, 5, 1)) // deadline mode, 21 s windows, a 6×7 street grid
		f.Add(d.bytes(3, 5, 1, 0, 3)) // real-time mode, 21 s windows, a 3×2 street grid
	}
	rng := rand.New(rand.NewSource(5))
	for range 6 {
		seed := make([]byte, 40+rng.Intn(160))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { windowDecisions(t, data) })
}

// TestWindowDecisionSeeds holds the named seeds to the windows they are
// named for, on crow-fly in both modes: sharedBest contests its window,
// and marginTie ties both rows and contests nothing.
func TestWindowDecisionSeeds(t *testing.T) {
	for mode := byte(0); mode < 2; mode++ {
		if contested, _ := windowDecisions(t, sharedBest.bytes(mode, 5)); contested != 1 {
			t.Errorf("mode %d: sharedBest contested %d windows, want 1", mode, contested)
		}
		if contested, tied := windowDecisions(t, marginTie.bytes(mode, 5)); contested != 0 || tied != 2 {
			t.Errorf("mode %d: marginTie contested %d windows and tied %d rows, want 0 and 2", mode, contested, tied)
		}
	}
}
