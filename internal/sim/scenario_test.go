package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/trace"
)

// These tests pin the semantics of the dynamic market events — the two
// workloads (driver churn, rider cancellation) the paper's static-fleet
// evaluation could not express.

func TestScenarioRetireStopsNewAssignments(t *testing.T) {
	// One driver, two well-separated tasks. Retiring her between the
	// two must reject the second.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	a := task(0, 1, 2, minutes(1), minutes(10), minutes(20), 10)
	b := task(1, 2, 3, minutes(30), minutes(60), minutes(80), 10)
	e := mustEngine(t, d)

	plain := e.RunScenario([]model.Task{a, b}, nil, pickFirst{})
	if plain.Served != 2 {
		t.Fatalf("baseline served %d, want 2", plain.Served)
	}
	res := e.RunScenario([]model.Task{a, b},
		[]model.MarketEvent{{At: minutes(25), Kind: model.EventRetire, Driver: 0}}, pickFirst{})
	if res.Served != 1 || res.Rejected != 1 {
		t.Fatalf("served=%d rejected=%d after retirement, want 1/1", res.Served, res.Rejected)
	}
	if _, ok := res.Assignment[0]; !ok {
		t.Fatal("task published before retirement should have been served")
	}
}

func TestScenarioJoinHidesDriverUntilAnnounced(t *testing.T) {
	// The information content of a join: an upfront-roster driver whose
	// shift starts at minute 10 can be pre-assigned a task published at
	// minute 1 (Algorithms 3–4 admit her — she departs at shift start),
	// but if she only joins at minute 10 the platform did not know her
	// when the task arrived, so the task is rejected. A task published
	// after the join is served either way.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: minutes(10), End: minutes(240)}}
	early := task(0, 1, 2, minutes(1), minutes(15), minutes(30), 10)
	// late's pickup deadline leaves room even behind early's deadline
	// lock (the driver is held until early's EndBy, minute 30).
	late := task(1, 1, 2, minutes(12), minutes(35), minutes(50), 10)
	join := []model.MarketEvent{{At: minutes(10), Kind: model.EventJoin, Driver: 0}}
	e := mustEngine(t, d)

	upfront := e.RunScenario([]model.Task{early, late}, nil, pickFirst{})
	if upfront.Served != 2 {
		t.Fatalf("upfront roster served %d, want 2 (pre-shift pre-assignment is legal)", upfront.Served)
	}
	joined := e.RunScenario([]model.Task{early, late}, join, pickFirst{})
	if _, ok := joined.Assignment[0]; ok {
		t.Fatal("task published before the join was pre-assigned to an unannounced driver")
	}
	if _, ok := joined.Assignment[1]; !ok {
		t.Fatal("task published after the join should be served")
	}
	if joined.Served != 1 || joined.Rejected != 1 {
		t.Fatalf("served=%d rejected=%d with mid-day join, want 1/1", joined.Served, joined.Rejected)
	}

	// For demand published after every join, the two rosters agree: the
	// same trace replayed with all-joins-at-start events and with the
	// shifts simply known upfront must match exactly once no task
	// precedes its candidate's announcement.
	cfg := trace.NewConfig(71, 100, 30, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	var joins []model.MarketEvent
	for i := range tr.Drivers {
		// Announce at time 0: same knowledge as an upfront roster.
		joins = append(joins, model.MarketEvent{At: 0, Kind: model.EventJoin, Driver: i})
	}
	eng, err := New(cfg.Market, tr.Drivers, 71)
	if err != nil {
		t.Fatal(err)
	}
	plain := eng.RunScenario(tr.Tasks, nil, diffNearest{})
	announced := eng.RunScenario(tr.Tasks, joins, diffNearest{})
	if !reflect.DeepEqual(plain, announced) {
		t.Fatal("join events at time zero changed the simulation result")
	}
}

func TestScenarioCancelBeforePickupRevokes(t *testing.T) {
	// Driver at km 0. Task from km 10: pickup arrival is minute 10, so
	// a cancellation at minute 5 lands mid-deadhead and revokes the
	// assignment: no revenue, no service cost, and the driver is free
	// again from her original position at the cancellation instant.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	a := task(0, 10, 12, minutes(0), minutes(15), minutes(30), 20)
	// A second task near the origin, published after the cancellation:
	// only servable if the driver was truly released at km 0.
	b := task(1, 1, 2, minutes(6), minutes(12), minutes(25), 10)
	e := mustEngine(t, d)

	res := e.RunScenario([]model.Task{a, b},
		[]model.MarketEvent{{At: minutes(5), Kind: model.EventCancel, Task: 0}}, pickFirst{})
	if res.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", res.Cancelled)
	}
	if res.Served != 1 {
		t.Fatalf("served = %d, want 1 (the follow-up task)", res.Served)
	}
	if _, ok := res.Assignment[0]; ok {
		t.Fatal("revoked task still in Assignment")
	}
	if drv, ok := res.Assignment[1]; !ok || drv != 0 {
		t.Fatal("released driver did not serve the follow-up task")
	}
	if got := res.DriverPaths[0]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("driver path = %v, want [1]", got)
	}
	// Accounting: only task b's economics. Legs 0→1 (1) + ride 1→2 (1)
	// + home 2→0 (2) = 4; baseline 0. Profit = 10 − 4 = 6.
	if math.Abs(res.Revenue-10) > 1e-9 {
		t.Fatalf("revenue = %.6f, want 10 (cancelled fare must not count)", res.Revenue)
	}
	if math.Abs(res.TotalProfit-6) > 1e-6 {
		t.Fatalf("profit = %.6f, want 6", res.TotalProfit)
	}
	if res.Served+res.Rejected+res.Cancelled != 2 {
		t.Fatalf("served+rejected+cancelled = %d, want 2", res.Served+res.Rejected+res.Cancelled)
	}
}

func TestScenarioCancelAfterPickupIsMoot(t *testing.T) {
	// Pickup at km 1 is reached at minute 1; a cancellation at minute 5
	// arrives with the rider already in the car — the ride proceeds.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	a := task(0, 1, 3, minutes(0), minutes(10), minutes(20), 10)
	e := mustEngine(t, d)
	res := e.RunScenario([]model.Task{a},
		[]model.MarketEvent{{At: minutes(5), Kind: model.EventCancel, Task: 0}}, pickFirst{})
	if res.Served != 1 || res.Cancelled != 0 {
		t.Fatalf("served=%d cancelled=%d, want 1/0 (too late to cancel)", res.Served, res.Cancelled)
	}
	if math.Abs(res.Revenue-10) > 1e-9 {
		t.Fatalf("revenue = %.6f, want 10", res.Revenue)
	}
}

func TestScenarioCancelOfRejectedTaskIsNoOp(t *testing.T) {
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	// Unreachable pickup: rejected at arrival.
	a := task(0, 30, 31, minutes(1), minutes(5), minutes(30), 10)
	e := mustEngine(t, d)
	res := e.RunScenario([]model.Task{a},
		[]model.MarketEvent{{At: minutes(3), Kind: model.EventCancel, Task: 0}}, pickFirst{})
	if res.Rejected != 1 || res.Cancelled != 0 {
		t.Fatalf("rejected=%d cancelled=%d, want 1/0", res.Rejected, res.Cancelled)
	}
}

func TestScenarioCancelPendingBatchedTask(t *testing.T) {
	// With a 10-minute batch window, a task cancelled inside the window
	// never reaches the matching: counted cancelled, not rejected.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	a := task(0, 1, 2, minutes(1), minutes(30), minutes(45), 10)
	e := mustEngine(t, d)
	res := e.RunBatchedScenario([]model.Task{a},
		[]model.MarketEvent{{At: minutes(5), Kind: model.EventCancel, Task: 0}},
		minutes(10))
	if res.Cancelled != 1 || res.Served != 0 || res.Rejected != 0 {
		t.Fatalf("cancelled=%d served=%d rejected=%d, want 1/0/0", res.Cancelled, res.Served, res.Rejected)
	}
}

// TestScenarioCancelKeepsBatchWindowsAnchored pins the batch-window
// invariant under cancellation: emptying an open batch must not leave a
// stale close behind, so later orders are decided at exactly the same
// instants whether the window's opener was cancelled or not.
func TestScenarioCancelKeepsBatchWindowsAnchored(t *testing.T) {
	// Two drivers so batch 2 has an unlocked candidate left.
	d := []model.Driver{
		{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)},
		{ID: 1, Source: at(1), Dest: at(1), Start: 0, End: minutes(240)},
	}
	// window 10 min. a opens batch 1 (closes at 10) and is cancelled at
	// minute 2, emptying it. b (publish 5) belongs to batch 1. c
	// (publish 11) opens batch 2, closing at minute 21 — with a stale
	// close left from the emptied batch, c would be decided early at
	// minute 15 instead. c's pickup deadline (minute 18) makes the
	// difference observable: a decision at 21 comes too late to serve.
	a := task(0, 1, 2, minutes(0), minutes(30), minutes(45), 10)
	b := task(1, 1, 2, minutes(5), minutes(30), minutes(45), 10)
	c := task(2, 1, 2, minutes(11), minutes(18), minutes(45), 10)
	cancelA := []model.MarketEvent{{At: minutes(2), Kind: model.EventCancel, Task: 0}}
	e := mustEngine(t, d)

	cancelled := e.RunBatchedScenario([]model.Task{a, b, c}, cancelA, minutes(10))
	uncancelled := e.RunBatchedScenario([]model.Task{a, b, c}, nil, minutes(10))

	for ti := 1; ti <= 2; ti++ {
		_, gc := cancelled.Assignment[ti]
		_, gu := uncancelled.Assignment[ti]
		if gc != gu {
			t.Fatalf("task %d: assigned=%v with opener cancelled, %v without — cancellation moved a batch window", ti, gc, gu)
		}
	}
	if cancelled.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", cancelled.Cancelled)
	}
	if _, ok := cancelled.Assignment[2]; ok {
		t.Fatal("task c decided before its batch's close (stale close fired early)")
	}
	if _, ok := cancelled.Assignment[1]; !ok {
		t.Fatal("task b should be matched at the original batch close")
	}
}

// TestScenarioInvalidEventsPanic: a Run* day panics on a scenario it
// cannot run, as its inputs are static; a stream returns the error.
func TestScenarioInvalidEventsPanic(t *testing.T) {
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	a := task(0, 1, 2, minutes(1), minutes(10), minutes(20), 10)
	tasks := []model.Task{a}
	badDriver := []model.MarketEvent{{At: 0, Kind: model.EventRetire, Driver: 5}}
	cancel := []model.MarketEvent{{At: minutes(2), Kind: model.EventCancel, Task: 0}}
	join := []model.MarketEvent{{At: 0, Kind: model.EventJoin, Driver: 0}}
	for _, tc := range []struct {
		name   string
		panics bool
		run    func(e *Engine) error
	}{
		{"RunScenario, bad index", true, func(e *Engine) error { e.RunScenario(tasks, badDriver, pickFirst{}); return nil }},
		{"RunBatchedScenario, bad index", true, func(e *Engine) error { e.RunBatchedScenario(tasks, badDriver, 60); return nil }},
		{"RunReplanScenario, bad index", true, func(e *Engine) error { e.RunReplanScenario(tasks, badDriver, 60); return nil }},
		{"RunByValue with events", true, func(e *Engine) error { e.mustOpen(tasks, join, false); return nil }},
		{"NewStream, cancellation", false, func(e *Engine) error { _, err := e.NewStream(pickFirst{}, cancel); return err }},
		{"NewStream, bad index", false, func(e *Engine) error { _, err := e.NewStream(pickFirst{}, badDriver); return err }},
		{"NewBatchedStream, cancellation", false, func(e *Engine) error {
			_, err := e.NewBatchedStream(60, BatchHungarian, cancel)
			return err
		}},
		{"NewBatchedStream, bad index", false, func(e *Engine) error {
			_, err := e.NewBatchedStream(60, BatchHungarian, badDriver)
			return err
		}},
	} {
		var err error
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			err = tc.run(mustEngine(t, d))
			return false
		}()
		if panicked != tc.panics || !tc.panics && err == nil {
			t.Errorf("%s: panicked %v, error %v; want a panic %v", tc.name, panicked, err, tc.panics)
		}
	}
}

// TestEventQueueAllocatesNothing: the typed heap boxes no event, so a
// push and a pop on a warmed queue allocate nothing.
func TestEventQueueAllocatesNothing(t *testing.T) {
	r := &eventRun{q: make([]event, 0, 8)}
	allocs := testing.AllocsPerRun(100, func() {
		r.push(event{Key: 1, Kind: evArrival})
		heap.Pop(&r.q, eventBefore)
	})
	if allocs != 0 {
		t.Fatalf("a push and a pop allocate %v times, want 0", allocs)
	}
}

// recordingClock captures every advance to verify the drain is paced
// monotonically through event time.
type recordingClock struct {
	froms, tos []float64
}

func (c *recordingClock) Advance(from, to float64) {
	c.froms = append(c.froms, from)
	c.tos = append(c.tos, to)
}

func TestClockAdvancesMonotonically(t *testing.T) {
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tasks := []model.Task{
		task(0, 1, 2, minutes(1), minutes(10), minutes(20), 10),
		task(1, 2, 3, minutes(30), minutes(60), minutes(80), 10),
		task(2, 3, 4, minutes(90), minutes(120), minutes(140), 10),
	}
	e := mustEngine(t, d)
	clk := &recordingClock{}
	e.Clock = clk
	e.RunScenario(tasks, nil, pickFirst{})
	if len(clk.tos) != 2 {
		t.Fatalf("clock advanced %d times across 3 distinct arrival times, want 2", len(clk.tos))
	}
	for i := range clk.tos {
		if clk.tos[i] <= clk.froms[i] {
			t.Fatalf("advance %d not forward: %g -> %g", i, clk.froms[i], clk.tos[i])
		}
		if i > 0 && clk.froms[i] != clk.tos[i-1] {
			t.Fatalf("advance %d does not resume where %d left off", i, i-1)
		}
	}
	// By-value runs are not time-ordered; the clock must stay silent.
	clk.froms, clk.tos = nil, nil
	e.RunByValue(tasks, pickFirst{})
	if len(clk.tos) != 0 {
		t.Fatalf("by-value run advanced the clock %d times", len(clk.tos))
	}
}

// TestScenarioChurnOpensCapacity is the workload-level sanity check:
// rising churn (earlier retirements) and cancellations must
// monotonically reduce served work on a supply-constrained market —
// the knob the static engine could never turn.
func TestScenarioChurnDegradesService(t *testing.T) {
	cfg := trace.NewConfig(77, 200, 25, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	e, err := New(cfg.Market, tr.Drivers, 77)
	if err != nil {
		t.Fatal(err)
	}
	base := e.RunScenario(tr.Tasks, nil, diffMaxMargin{})
	heavy := e.RunScenario(tr.Tasks, trace.WithChurn(tr, trace.ChurnConfig{
		Seed: 7, RetireFraction: 0.8, CancelFraction: 0.4,
	}), diffMaxMargin{})
	if heavy.Served >= base.Served {
		t.Fatalf("heavy churn served %d >= baseline %d", heavy.Served, base.Served)
	}
	if heavy.Cancelled == 0 {
		t.Fatal("heavy churn produced no cancellations")
	}
	if heavy.Served+heavy.Rejected+heavy.Cancelled != len(tr.Tasks) {
		t.Fatalf("task conservation violated: %d+%d+%d != %d",
			heavy.Served, heavy.Rejected, heavy.Cancelled, len(tr.Tasks))
	}
}
