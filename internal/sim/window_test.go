package sim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

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
