package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/matching"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestBatchedServiceReplayBitIdenticalToEngine is the batched half of
// the package's differential contract: submitting a generated day —
// churn and cancellations included — event by event through a Service
// built WithBatching produces a final result bit-identical to
// Engine.RunBatchedScenario replaying the same trace in one call over
// the engine's exact scan. The hungarian, shards=N and workers=M labels
// predate the deletion of the second window solver, of the zone
// partition and of the window worker pool: Hungarian goes to
// WithBatching's deprecated parameter, N to the deprecated WithShards
// and M to the deprecated WithMatchWorkers, which must change nothing,
// and go away with them.
func TestBatchedServiceReplayBitIdenticalToEngine(t *testing.T) {
	const seed = 17
	scenarios := []struct {
		drivers, tasks int
		churn, cancel  float64
		window         float64
	}{
		{30, 150, 0, 0, 45},
		{30, 150, 0.5, 0.4, 90},
	}
	for si, sc := range scenarios {
		cfg := trace.NewConfig(int64(70+si), sc.tasks, sc.drivers, trace.Hitchhiking)
		cfg.PickupWindowMin = 8 * 60 // give windows room to form
		cfg.PickupWindowMax = 16 * 60
		tr := trace.NewGenerator(cfg).Generate(nil)
		if sc.churn > 0 || sc.cancel > 0 {
			tr.Events = trace.WithChurn(tr, trace.DefaultChurn(int64(si), sc.churn, sc.cancel))
		}
		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("s%d/%v/shards=%d/workers=%d", si, Hungarian, shards, workers)
				t.Run(name, func(t *testing.T) {
					eng, err := sim.New(cfg.Market, tr.Drivers, seed)
					if err != nil {
						t.Fatal(err)
					}
					eng.SetCandidateSource(&sim.ScanSource{})
					batch := eng.RunBatchedScenario(tr.Tasks, tr.Events, sc.window)

					svc := replayTrace(t, tr, WithBatching(sc.window, Hungarian),
						WithShards(shards), WithMatchWorkers(workers), WithSeed(seed), WithStrictTimes())
					stats, err := svc.Close()
					if err != nil {
						t.Fatal(err)
					}
					if svc.final == nil {
						t.Fatal("service kept no final result")
					}
					if !reflect.DeepEqual(batch, *svc.final) {
						t.Fatalf("batched service replay diverged from engine:\nengine:  served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f\nservice: served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f",
							batch.Served, batch.Rejected, batch.Cancelled, batch.Revenue, batch.TotalProfit,
							stats.Served, stats.Rejected, stats.Cancelled, stats.Revenue, stats.Profit)
					}
					if stats.Pending != 0 {
						t.Fatalf("pending after Close: %d", stats.Pending)
					}
					if stats.Served+stats.Rejected+stats.Cancelled != stats.Tasks {
						t.Fatalf("final books do not balance: %+v", stats)
					}
				})
			}
		}
	}
}

// TestWithBatchingValidation pins the typed-error boundary the sim
// layer's internal panic moved behind: bad windows and unknown solvers
// never reach the engine.
func TestWithBatchingValidation(t *testing.T) {
	m := Market{Drivers: []Driver{{
		ID: 0, Source: Point{Lat: 41.15, Lon: -8.61}, Dest: Point{Lat: 41.16, Lon: -8.60},
		Start: 0, End: 7200,
	}}}
	for _, w := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := New(m, WithBatching(w, Hungarian)); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("WithBatching(%g): %v, want ErrInvalidOption", w, err)
		}
	}
	if _, err := New(m, WithBatching(30, BatchAlgorithm(9))); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("unknown algorithm: %v, want ErrInvalidOption", err)
	}
	if _, err := New(m, WithBatching(30, Hungarian)); err != nil {
		t.Errorf("valid batching rejected: %v", err)
	}

	// The deprecated option still validates its count.
	for _, n := range []int{0, -3} {
		if _, err := New(m, WithBatching(30, Hungarian), WithMatchWorkers(n)); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("WithMatchWorkers(%d): %v, want ErrInvalidOption", n, err)
		}
	}
	if _, err := New(m, WithBatching(30, Hungarian), WithMatchWorkers(4)); err != nil {
		t.Errorf("valid match workers rejected: %v", err)
	}
}

// TestWithBatchingRejectsUnknownAlgorithm pins the deprecated algo
// parameter: it accepts Hungarian, refuses anything else by name
// (BatchAlgorithm(1) was the ε-auction), and selects nothing.
func TestWithBatchingRejectsUnknownAlgorithm(t *testing.T) {
	_, err := New(overloadMarket(), WithBatching(30, BatchAlgorithm(1)))
	if !errors.Is(err, ErrInvalidOption) || !strings.Contains(err.Error(), "unknown batch algorithm BatchAlgorithm(1)") {
		t.Fatalf("WithBatching(30, BatchAlgorithm(1)): %v, want ErrInvalidOption naming the algorithm", err)
	}
}

// TestBatchedServicePendingContract drives one scripted window through
// the public API and pins the pending-decision contract: the pending
// handle, the feed order (pending → per-task decisions → batch_closed),
// Decision before and after the close, and mid-window Stats.
func TestBatchedServicePendingContract(t *testing.T) {
	ctx := context.Background()
	base := Point{Lat: 41.15, Lon: -8.61}
	near := func(dlat, dlon float64) Point { return Point{Lat: base.Lat + dlat, Lon: base.Lon + dlon} }
	svc, err := New(Market{Drivers: []Driver{
		{ID: 100, Source: base, Dest: near(0.02, 0.02), Start: 0, End: 7200},
		{ID: 101, Source: near(0.003, 0.003), Dest: near(0.02, 0.02), Start: 0, End: 7200},
	}}, WithBatching(30, Hungarian))
	if err != nil {
		t.Fatal(err)
	}
	feed, cancel := svc.Subscribe(64)
	defer cancel()

	mkTask := func(id int, publish float64) Task {
		return Task{ID: id, Publish: publish, Source: near(0.001, 0), Dest: near(0.01, 0.01),
			StartBy: publish + 900, EndBy: publish + 3600, Price: 10}
	}
	a1, err := svc.SubmitTask(ctx, mkTask(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Pending || a1.Assigned || a1.DecideBy != 130 || a1.DecidedAt != 100 {
		t.Fatalf("pending handle %+v", a1)
	}
	a2, err := svc.SubmitTask(ctx, mkTask(2, 110))
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Pending || a2.DecideBy != 130 {
		t.Fatalf("second pending handle %+v (window must stay anchored at its opener)", a2)
	}

	// Mid-window: both orders pending, the books balance through the
	// Pending column, and Decision answers with the handle.
	snap, err := svc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Pending != 2 || snap.Served != 0 || snap.Rejected != 0 {
		t.Fatalf("mid-window stats %+v", snap)
	}
	if snap.Served+snap.Rejected+snap.Cancelled+snap.Pending != snap.Tasks {
		t.Fatalf("mid-window books do not balance: %+v", snap)
	}
	d1, err := svc.Decision(ctx, 1)
	if err != nil || !d1.Pending || d1.DecideBy != 130 {
		t.Fatalf("Decision mid-window: %+v, %v", d1, err)
	}
	if _, err := svc.Decision(ctx, 999); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("Decision(999): %v", err)
	}

	// A third order published past the close drains the window first:
	// its own window opens at 200.
	a3, err := svc.SubmitTask(ctx, mkTask(3, 200))
	if err != nil {
		t.Fatal(err)
	}
	if !a3.Pending || a3.DecideBy != 230 {
		t.Fatalf("third pending handle %+v", a3)
	}
	d1, err = svc.Decision(ctx, 1)
	if err != nil || d1.Pending || !d1.Assigned || d1.DecidedAt != 130 {
		t.Fatalf("Decision after close: %+v, %v", d1, err)
	}

	stats, err := svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Both drivers are deadline-locked by window 1's trips, so window
	// 2's order finds no feasible driver: the batched market's
	// response-time trade-off, visible end to end.
	if stats.Pending != 0 || stats.Served != 2 || stats.Rejected != 1 || stats.Tasks != 3 {
		t.Fatalf("final stats %+v", stats)
	}
	// Decision still answers after Close.
	d3, err := svc.Decision(ctx, 3)
	if err != nil || d3.Pending || d3.Assigned || d3.DecidedAt != 230 {
		t.Fatalf("Decision after Close: %+v, %v", d3, err)
	}

	var types []EventType
	var closes []*BatchStats
	for ev := range feed {
		types = append(types, ev.Type)
		if ev.Type == EventBatchClosed {
			closes = append(closes, ev.Batch)
		}
	}
	want := []EventType{
		EventPending, EventPending, // window 1 fills
		EventAssigned, EventAssigned, EventBatchClosed, // window 1 decided
		EventPending,                    // window 2 fills
		EventRejected, EventBatchClosed, // window 2 decided by Close
	}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("feed %v, want %v", types, want)
	}
	if len(closes) != 2 || closes[0] == nil || closes[1] == nil {
		t.Fatalf("batch_closed payloads %v", closes)
	}
	if closes[0].Submitted != 2 || closes[0].Matched != 2 || closes[0].OpenedAt != 100 || closes[0].ClosedAt != 130 {
		t.Fatalf("window 1 stats %+v", *closes[0])
	}
	if closes[1].Submitted != 1 || closes[1].Matched != 0 || closes[1].Rejected != 1 || closes[1].ClosedAt != 230 {
		t.Fatalf("window 2 stats %+v", *closes[1])
	}
}

// TestBatchedServiceCancelInWindow: a rider withdrawing an order before
// its window closes is never assigned, and the window stats record the
// cancellation.
func TestBatchedServiceCancelInWindow(t *testing.T) {
	ctx := context.Background()
	base := Point{Lat: 41.15, Lon: -8.61}
	near := func(dlat, dlon float64) Point { return Point{Lat: base.Lat + dlat, Lon: base.Lon + dlon} }
	svc, err := New(Market{Drivers: []Driver{
		{ID: 1, Source: base, Dest: near(0.02, 0.02), Start: 0, End: 7200},
	}}, WithBatching(30, Hungarian))
	if err != nil {
		t.Fatal(err)
	}
	feed, cancel := svc.Subscribe(16)
	defer cancel()
	if _, err := svc.SubmitTask(ctx, Task{ID: 7, Publish: 100, Source: near(0.001, 0),
		Dest: near(0.01, 0.01), StartBy: 900, EndBy: 3600, Price: 10}); err != nil {
		t.Fatal(err)
	}
	out, err := svc.CancelTask(ctx, 7, 110)
	if err != nil || !out.Cancelled || out.FreedDriverID != -1 {
		t.Fatalf("in-window cancel %+v, %v", out, err)
	}
	stats, err := svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cancelled != 1 || stats.Served != 0 || stats.Rejected != 0 || stats.Pending != 0 {
		t.Fatalf("final stats %+v", stats)
	}
	d, err := svc.Decision(ctx, 7)
	if err != nil || d.Assigned {
		t.Fatalf("cancelled task decided: %+v, %v", d, err)
	}
	var sawClose bool
	for ev := range feed {
		switch ev.Type {
		case EventAssigned:
			t.Fatalf("cancelled task assigned: %+v", ev)
		case EventBatchClosed:
			sawClose = true
			if ev.Batch.Cancelled != 1 || ev.Batch.Submitted != 1 || ev.Batch.Matched != 0 {
				t.Fatalf("window stats %+v", *ev.Batch)
			}
		}
	}
	if !sawClose {
		t.Fatal("no batch_closed event (empty windows still close)")
	}
}

// TestBatchedServiceRealTimeSoak races concurrent submitters and
// cancellers against the wall-clock batch-close timer of a live batched
// service (WithBatching + WithRealTime) and checks feed and Snapshot
// consistency throughout. Run under -race this is the batched service's
// concurrency guarantee; it is skipped in short mode.
func TestBatchedServiceRealTimeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		submitters = 6
		perWorker  = 100
		window     = 0.05 // simulated seconds == wall seconds under the live timer
	)
	cfg := trace.NewConfig(23, submitters*perWorker, 100, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	m := Market{}
	for i, d := range tr.Drivers {
		m.Drivers = append(m.Drivers, pubDriver(i, d, 0))
	}
	svc, err := New(m, WithBatching(window, Hungarian), WithRealTime(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	feed, cancelSub := svc.Subscribe(8192)
	defer cancelSub()
	var consumed sync.WaitGroup
	consumed.Add(1)
	var pendingEvs, decidedEvs, closeEvs int
	go func() {
		defer consumed.Done()
		for ev := range feed {
			switch ev.Type {
			case EventPending:
				pendingEvs++
			case EventAssigned, EventRejected:
				decidedEvs++
			case EventBatchClosed:
				closeEvs++
				if ev.Batch == nil || ev.Batch.Submitted != ev.Batch.Matched+ev.Batch.Rejected+ev.Batch.Cancelled {
					panic(fmt.Sprintf("inconsistent window stats %+v", ev.Batch))
				}
			}
		}
	}()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, submitters+1)
	for w := 0; w < submitters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < perWorker; k++ {
				ti := w*perWorker + k
				a, err := svc.SubmitTask(ctx, pubTask(ti, tr.Tasks[ti]))
				if err != nil {
					errs <- fmt.Errorf("submit %d: %w", ti, err)
					return
				}
				if !a.Pending {
					errs <- fmt.Errorf("submit %d answered instantly on a batched service", ti)
					return
				}
				// Some riders think better of it while still in the window.
				if rng.Float64() < 0.15 {
					if _, err := svc.CancelTask(ctx, ti, a.DecidedAt+window/4); err != nil {
						errs <- fmt.Errorf("cancel %d: %w", ti, err)
						return
					}
				}
			}
		}()
	}
	// Snapshot reader: the books must balance at every instant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			snap, err := svc.Snapshot(ctx)
			if err != nil {
				errs <- fmt.Errorf("snapshot: %w", err)
				return
			}
			if snap.Served+snap.Rejected+snap.Cancelled+snap.Pending != snap.Tasks {
				errs <- fmt.Errorf("books do not balance mid-run: %+v", snap)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The last window has no follow-up traffic: only the wall-clock
	// timer can close it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := svc.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wall-clock timer never closed the final window: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	stats, err := svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	consumed.Wait()
	total := submitters * perWorker
	if stats.Tasks != total {
		t.Fatalf("submitted %d of %d", stats.Tasks, total)
	}
	if stats.Served+stats.Rejected+stats.Cancelled != total || stats.Pending != 0 {
		t.Fatalf("final books do not balance: %+v", stats)
	}
	if pendingEvs == 0 || decidedEvs == 0 || closeEvs == 0 {
		t.Fatalf("feed starved: pending=%d decided=%d closes=%d", pendingEvs, decidedEvs, closeEvs)
	}
}

// TestTiedWindowClosesAtDenseOptimum: k drivers parked on one point and
// k+2 identical orders make every margin of the window tie bitwise —
// the shape on which an ε-auction walks the prices up in ε steps with
// the service mutex held (EXPERIMENTS.md has the timings that retired
// it). The one window serves k orders, rejects two, and books exactly
// the weight the dense Hungarian oracle finds on the all-tied matrix.
func TestTiedWindowClosesAtDenseOptimum(t *testing.T) {
	const k = 28
	day := func(drivers, orders int) Stats {
		t.Helper()
		m := Market{}
		d := overloadMarket().Drivers[0]
		for d.ID = 0; d.ID < drivers; d.ID++ {
			m.Drivers = append(m.Drivers, d)
		}
		svc, err := New(m, WithBatching(30, Hungarian), WithStrictTimes())
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < orders; id++ {
			if _, err := svc.SubmitTask(context.Background(), overloadTask(id, 5)); err != nil {
				t.Fatalf("SubmitTask(%d): %v", id, err)
			}
		}
		st, err := svc.Close()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// One driver, one order: her profit is the margin every pair of the
	// tied window shares.
	delta := day(1, 1).Profit
	if !(delta > 0) {
		t.Fatalf("the lone pair's margin is %g, want positive", delta)
	}
	w := make([][]float64, k+2)
	for r := range w {
		w[r] = make([]float64, k)
		for c := range w[r] {
			w[r][c] = delta
		}
	}
	dense, err := matching.Hungarian(w)
	if err != nil {
		t.Fatal(err)
	}

	st := day(k, k+2)
	if st.Served != k || st.Rejected != 2 || st.Pending != 0 {
		t.Fatalf("tied window: served %d rejected %d pending %d, want %d/2/0", st.Served, st.Rejected, st.Pending, k)
	}
	if st.Profit != dense.Weight {
		t.Fatalf("tied window booked %.15f, the dense oracle's optimum is %.15f", st.Profit, dense.Weight)
	}
}
