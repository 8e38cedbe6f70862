package sim

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// replayThroughBatchedStream feeds a whole trace through a batched
// Stream in the canonical merge order (see replayThroughStream) and
// returns the final Result. Joins and retirements are pre-scheduled as
// fleet events; cancellations and arrivals are submitted live, so
// window closes fire exactly where RunBatchedScenario's drain would
// fire them: before the first submission at or past the close time, or
// in Finish.
func replayThroughBatchedStream(t *testing.T, e *Engine, window float64,
	tasks []model.Task, events []model.MarketEvent) Result {
	t.Helper()
	var fleet []model.MarketEvent
	type item struct {
		at     float64
		rank   int
		isTask bool
		task   int
	}
	var feed []item
	for _, ev := range events {
		switch ev.Kind {
		case model.EventJoin, model.EventRetire:
			fleet = append(fleet, ev)
		case model.EventCancel:
			feed = append(feed, item{at: ev.At, rank: int(evCancel), task: ev.Task})
		}
	}
	for i := range tasks {
		feed = append(feed, item{at: tasks[i].Publish, rank: int(evArrival), isTask: true, task: i})
	}
	sort.SliceStable(feed, func(a, b int) bool {
		if feed[a].at != feed[b].at {
			return feed[a].at < feed[b].at
		}
		return feed[a].rank < feed[b].rank
	})

	st, err := e.NewBatchedStream(window, BatchHungarian, fleet)
	if err != nil {
		t.Fatalf("NewBatchedStream: %v", err)
	}
	for _, it := range feed {
		if it.isTask {
			dec, err := st.SubmitTask(tasks[it.task])
			if err != nil {
				t.Fatalf("SubmitTask(%d): %v", it.task, err)
			}
			if dec.Task != it.task {
				t.Fatalf("task registered under index %d, want %d", dec.Task, it.task)
			}
			if !dec.Pending {
				t.Fatalf("batched submission %d answered instantly: %+v", it.task, dec)
			}
			if dec.DecideAt <= dec.At || dec.DecideAt > dec.At+window {
				t.Fatalf("task %d window close %g outside (%g, %g]", it.task, dec.DecideAt, dec.At, dec.At+window)
			}
		} else {
			if _, _, err := st.CancelTask(it.task, it.at); err != nil {
				t.Fatalf("CancelTask(%d): %v", it.task, err)
			}
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res
}

// TestBatchedStreamBitIdenticalToRunBatched is the tentpole's
// differential contract: replaying any trace — churn, cancellations,
// the scan (shards=1) and the indexed source as the deprecated
// NewShardedSource shim hands it out (shards=2, 4: the labels predate
// the deletion of the zone partition and go with the shim, as the
// batched(hungarian) level predates the deletion of the second solver)
// — one event at a time through a batched Stream must produce the
// same Result, bit for bit, as RunBatchedScenario on the whole day.
func TestBatchedStreamBitIdenticalToRunBatched(t *testing.T) {
	scenarios := []struct {
		drivers, tasks int
		churn, cancel  float64
		window         float64
	}{
		{25, 120, 0, 0, 45},
		{25, 120, 0.4, 0.3, 45},
		{40, 150, 0.5, 0.4, 120},
	}
	for si, sc := range scenarios {
		cfg := trace.NewConfig(int64(200+si), sc.tasks, sc.drivers, trace.Hitchhiking)
		cfg.PickupWindowMin = 8 * 60 // give batches room to form
		cfg.PickupWindowMax = 16 * 60
		tr := trace.NewGenerator(cfg).Generate(nil)
		var events []model.MarketEvent
		if sc.churn > 0 || sc.cancel > 0 {
			events = trace.WithChurn(tr, trace.DefaultChurn(int64(si), sc.churn, sc.cancel))
		}
		for _, shards := range []int{1, 2, 4} {
			name := fmt.Sprintf("s%d/%v/shards=%d", si, BatchHungarian, shards)
			t.Run(name, func(t *testing.T) {
				mk := func() CandidateSource {
					if shards > 1 {
						return NewShardedSource(shards)
					}
					return &ScanSource{}
				}
				be, err := New(cfg.Market, tr.Drivers, 7)
				if err != nil {
					t.Fatal(err)
				}
				be.SetCandidateSource(mk())
				batch := be.RunBatchedScenario(tr.Tasks, events, sc.window)

				se, err := New(cfg.Market, tr.Drivers, 7)
				if err != nil {
					t.Fatal(err)
				}
				se.SetCandidateSource(mk())
				streamed := replayThroughBatchedStream(t, se, sc.window, tr.Tasks, events)

				if !reflect.DeepEqual(batch, streamed) {
					t.Fatalf("batched stream diverged from RunBatchedScenario:\nbatch:  served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f\nstream: served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f",
						batch.Served, batch.Rejected, batch.Cancelled, batch.Revenue, batch.TotalProfit,
						streamed.Served, streamed.Rejected, streamed.Cancelled, streamed.Revenue, streamed.TotalProfit)
				}
			})
		}
	}
}

// TestBatchedStreamInvariants is the batched mode's property wall,
// driven over randomized churn/cancel days:
//
//   - the books balance after every single operation and every window
//     close: served + rejected + cancelled + pending == submitted;
//   - no driver receives two assignments within one window;
//   - a task cancelled while waiting in its window is never assigned;
//   - every submitted task is decided (or cancelled) by Finish.
func TestBatchedStreamInvariants(t *testing.T) {
	seeds := []int64{301, 302, 303, 304}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d/%v", seed, BatchHungarian), func(t *testing.T) {
			cfg := trace.NewConfig(seed, 150, 30, trace.Hitchhiking)
			cfg.PickupWindowMin = 8 * 60
			cfg.PickupWindowMax = 16 * 60
			tr := trace.NewGenerator(cfg).Generate(nil)
			events := trace.WithChurn(tr, trace.ChurnConfig{
				Seed: seed + 9, JoinFraction: 0.3, RetireFraction: 0.3, CancelFraction: 0.35,
			})

			e, err := New(cfg.Market, tr.Drivers, seed)
			if err != nil {
				t.Fatal(err)
			}
			var fleet []model.MarketEvent
			type op struct {
				at     float64
				rank   int
				isTask bool
				task   int
			}
			var feed []op
			for _, ev := range events {
				switch ev.Kind {
				case model.EventJoin, model.EventRetire:
					fleet = append(fleet, ev)
				case model.EventCancel:
					feed = append(feed, op{at: ev.At, rank: int(evCancel), task: ev.Task})
				}
			}
			for i := range tr.Tasks {
				feed = append(feed, op{at: tr.Tasks[i].Publish, rank: int(evArrival), isTask: true, task: i})
			}
			sort.SliceStable(feed, func(a, b int) bool {
				if feed[a].at != feed[b].at {
					return feed[a].at < feed[b].at
				}
				return feed[a].rank < feed[b].rank
			})

			st, err := e.NewBatchedStream(60, BatchHungarian, fleet)
			if err != nil {
				t.Fatal(err)
			}
			decided := make(map[int]TaskDecision)
			var windowDrivers map[int]bool
			cancelledPending := make(map[int]bool)
			st.SetDecisionHandler(func(dec TaskDecision) {
				if windowDrivers == nil {
					windowDrivers = make(map[int]bool)
				}
				if _, dup := decided[dec.Task]; dup {
					t.Errorf("task %d decided twice", dec.Task)
				}
				decided[dec.Task] = dec
				if cancelledPending[dec.Task] {
					t.Errorf("task %d was cancelled in its window but still decided: %+v", dec.Task, dec)
				}
				if dec.Assigned {
					if windowDrivers[dec.Driver] {
						t.Errorf("driver %d assigned twice within one window", dec.Driver)
					}
					windowDrivers[dec.Driver] = true
				}
			})
			windows := 0
			st.SetBatchCloseHandler(func(bs BatchStats) {
				windows++
				if bs.Submitted != bs.Matched+bs.Rejected+bs.Cancelled {
					t.Errorf("window stats do not balance: %+v", bs)
				}
				if bs.ClosedAt != bs.OpenedAt+60 {
					t.Errorf("window not anchored at its opener: %+v", bs)
				}
				windowDrivers = nil // next window may reuse drivers
				// Books are NOT checked here: a close usually fires
				// inside the submission that passed its time, when
				// that task is registered but its arrival is still
				// queued. The per-operation check below covers every
				// post-close state.
			})

			cancelledOK := make(map[int]bool)
			for _, o := range feed {
				if o.isTask {
					if _, err := st.SubmitTask(tr.Tasks[o.task]); err != nil {
						t.Fatalf("SubmitTask(%d): %v", o.task, err)
					}
				} else {
					_, wasDecided := decided[o.task]
					if _, ok, err := st.CancelTask(o.task, o.at); err != nil {
						t.Fatalf("CancelTask(%d): %v", o.task, err)
					} else if ok {
						cancelledOK[o.task] = true
						if !wasDecided {
							cancelledPending[o.task] = true
						}
					}
				}
				checkBooks(t, st, "after op")
			}
			res, err := st.Finish()
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if windows == 0 {
				t.Fatal("no window ever closed")
			}
			if res.Served+res.Rejected+res.Cancelled != len(tr.Tasks) {
				t.Fatalf("final books do not balance: served=%d rejected=%d cancelled=%d of %d",
					res.Served, res.Rejected, res.Cancelled, len(tr.Tasks))
			}
			for ti := range tr.Tasks {
				if _, wasDecided := decided[ti]; !wasDecided && !cancelledOK[ti] {
					t.Errorf("task %d neither decided nor cancelled", ti)
				}
			}
		})
	}
}

// checkBooks asserts the mid-run accounting identity of a batched
// stream: every submitted task is served, rejected, cancelled or
// waiting in the open window.
func checkBooks(t *testing.T, st *Stream, where string) {
	t.Helper()
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatalf("%s: Snapshot: %v", where, err)
	}
	if got := snap.Served + snap.Rejected + snap.Cancelled + st.PendingTasks(); got != st.TaskCount() {
		t.Fatalf("%s: books do not balance: served=%d rejected=%d cancelled=%d pending=%d, submitted=%d",
			where, snap.Served, snap.Rejected, snap.Cancelled, st.PendingTasks(), st.TaskCount())
	}
}

// TestBatchedStreamWindowLifecycle pins the open-loop window mechanics
// on a scripted market: BatchDue anchoring, pending counts, cancel
// inside the window, decision delivery on AdvanceTo.
func TestBatchedStreamWindowLifecycle(t *testing.T) {
	drivers := []model.Driver{
		{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)},
		{ID: 1, Source: at(2), Dest: at(2), Start: 0, End: minutes(240)},
	}
	e := mustEngine(t, drivers)
	st, err := e.NewBatchedStream(30, BatchHungarian, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, open := st.BatchDue(); open {
		t.Fatal("window open before any order")
	}
	var decisions []TaskDecision
	st.SetDecisionHandler(func(d TaskDecision) { decisions = append(decisions, d) })
	var closes []BatchStats
	st.SetBatchCloseHandler(func(bs BatchStats) { closes = append(closes, bs) })

	a := task(0, 0, 2, minutes(1), minutes(20), minutes(30), 10)
	b := task(1, 1, 3, minutes(1), minutes(20), minutes(30), 10)
	c := task(2, 0, 1, minutes(1), minutes(20), minutes(30), 10)
	decA, err := st.SubmitTask(a)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if !decA.Pending || decA.DecideAt != minutes(1)+30 {
		t.Fatalf("first submission: %+v", decA)
	}
	if closeAt, open := st.BatchDue(); !open || closeAt != decA.DecideAt {
		t.Fatalf("BatchDue = %g, %v", closeAt, open)
	}
	if _, err := st.SubmitTask(b); err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if _, err := st.SubmitTask(c); err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if st.PendingTasks() != 3 {
		t.Fatalf("pending = %d, want 3", st.PendingTasks())
	}
	// Rider c thinks better of it while the window is open.
	if _, ok, err := st.CancelTask(2, minutes(1)+5); err != nil {
		t.Fatalf("CancelTask: %v", err)
	} else if !ok {
		t.Fatal("in-window cancel not honored")
	}
	if st.PendingTasks() != 2 {
		t.Fatalf("pending after cancel = %d, want 2", st.PendingTasks())
	}
	// Advancing past the close decides the window.
	if err := st.AdvanceTo(minutes(2)); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	if len(decisions) != 2 || len(closes) != 1 {
		t.Fatalf("decisions=%d closes=%d after advance", len(decisions), len(closes))
	}
	bs := closes[0]
	if bs.Submitted != 3 || bs.Cancelled != 1 || bs.Matched+bs.Rejected != 2 {
		t.Fatalf("window stats %+v", bs)
	}
	if bs.OpenedAt != minutes(1) || bs.ClosedAt != minutes(1)+30 {
		t.Fatalf("window anchoring %+v", bs)
	}
	seen := map[int]bool{}
	for _, d := range decisions {
		if d.At != bs.ClosedAt {
			t.Fatalf("decision at %g, want close time %g", d.At, bs.ClosedAt)
		}
		if d.Assigned {
			if seen[d.Driver] {
				t.Fatalf("driver %d assigned twice in one window", d.Driver)
			}
			seen[d.Driver] = true
		}
	}
	if _, open := st.BatchDue(); open {
		t.Fatal("window still open after its close fired")
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if res.Served+res.Rejected != 2 || res.Cancelled != 1 {
		t.Fatalf("final result %+v", res)
	}
}

// TestNewBatchedStreamRejectsBadWindow: the streaming constructor is a
// public boundary and returns a typed-by-message error instead of the
// Run* entry points' internal-invariant panic.
func TestNewBatchedStreamRejectsBadWindow(t *testing.T) {
	e := mustEngine(t, []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: 100}})
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := e.NewBatchedStream(w, BatchHungarian, nil); err == nil {
			t.Errorf("window %g accepted", w)
		}
	}
	if _, err := e.NewBatchedStream(30, BatchHungarian, nil); err != nil {
		t.Errorf("valid window rejected: %v", err)
	}
}

// TestNewBatchedStreamRejectsUnknownAlgorithm pins the deprecated algo
// parameter: it accepts BatchHungarian, refuses anything else by name
// (BatchAlgorithm(1) was the ε-auction), and selects nothing.
func TestNewBatchedStreamRejectsUnknownAlgorithm(t *testing.T) {
	e := mustEngine(t, []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: 100}})
	_, err := e.NewBatchedStream(30, BatchAlgorithm(1), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown batch algorithm BatchAlgorithm(1)") {
		t.Fatalf("BatchAlgorithm(1): err = %v, want the unknown-algorithm refusal", err)
	}
}
