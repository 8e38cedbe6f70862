package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// feedItem is one live operation of a suspended-and-resumed replay.
type feedItem struct {
	at     float64
	rank   int
	isTask bool
	task   int
}

// buildFeed merges tasks and cancellations into the canonical replay
// order and splits out the pre-scheduled fleet events.
func buildFeed(tasks []model.Task, events []model.MarketEvent) (feed []feedItem, fleet []model.MarketEvent) {
	for _, ev := range events {
		switch ev.Kind {
		case model.EventJoin, model.EventRetire:
			fleet = append(fleet, ev)
		case model.EventCancel:
			feed = append(feed, feedItem{at: ev.At, rank: int(evCancel), task: ev.Task})
		}
	}
	for i := range tasks {
		feed = append(feed, feedItem{at: tasks[i].Publish, rank: int(evArrival), isTask: true, task: i})
	}
	// Insertion sort keeps the test free of sort-stability subtleties.
	for i := 1; i < len(feed); i++ {
		for j := i; j > 0 && (feed[j].at < feed[j-1].at ||
			(feed[j].at == feed[j-1].at && feed[j].rank < feed[j-1].rank)); j-- {
			feed[j], feed[j-1] = feed[j-1], feed[j]
		}
	}
	return feed, fleet
}

func applyItems(t *testing.T, st *Stream, tasks []model.Task, items []feedItem) {
	t.Helper()
	for _, it := range items {
		if it.isTask {
			if _, err := st.SubmitTask(tasks[it.task]); err != nil {
				t.Fatalf("SubmitTask(%d): %v", it.task, err)
			}
		} else {
			if _, _, err := st.CancelTask(it.task, it.at); err != nil {
				t.Fatalf("CancelTask(%d): %v", it.task, err)
			}
		}
	}
}

// TestStreamStateRoundTrip is the suspend/resume differential: run a
// churning trace to a cut point, capture the state, serialize it
// through JSON (the version-1 snapshot format; dispatch's
// TestCodecStateRoundTrip repeats this through the binary codec that
// replaced it), restore it onto a FRESH
// engine, finish both runs — the restored one must settle books
// bit-identical to the never-interrupted one. Swept across instant and
// batched modes, both candidate sources — the row labelled shards-1 is
// the scan; shards-2 and shards-4 are one and the same indexed source,
// twice, through the deprecated NewShardedSource shim (nothing has been
// sharded since PR 15; the labels go when the shim does, ROADMAP item
// 1) — and several cut points including 0 (the virgin stream) and
// every-op (capture after each operation).
func TestStreamStateRoundTrip(t *testing.T) {
	cfg := trace.NewConfig(41, 120, 25, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.DefaultChurn(3, 0.4, 0.3))
	feed, fleet := buildFeed(tr.Tasks, events)

	type mode struct {
		name    string
		batched bool
	}
	modes := []mode{{"instant", false}, {"batched", true}}
	for _, m := range modes {
		for _, shards := range []int{1, 2, 4} {
			src := func() CandidateSource {
				if shards > 1 {
					return NewShardedSource(shards)
				}
				return &ScanSource{}
			}
			mk := func() (*Stream, error) {
				e, err := New(cfg.Market, tr.Drivers, 7)
				if err != nil {
					return nil, err
				}
				e.SetCandidateSource(src())
				if m.batched {
					return e.NewBatchedStream(45, BatchHungarian, fleet)
				}
				// diffRandom draws the RNG on ties: restores must
				// reproduce the RNG position too.
				return e.NewStream(diffRandom{}, fleet)
			}
			t.Run(fmt.Sprintf("%s/shards-%d", m.name, shards), func(t *testing.T) {
				base, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				applyItems(t, base, tr.Tasks, feed)
				want, err := base.Finish()
				if err != nil {
					t.Fatal(err)
				}

				for _, cut := range []int{0, 1, len(feed) / 3, len(feed) / 2, len(feed) - 1, len(feed)} {
					st, err := mk()
					if err != nil {
						t.Fatal(err)
					}
					applyItems(t, st, tr.Tasks, feed[:cut])
					snap, err := st.CaptureState()
					if err != nil {
						t.Fatalf("cut %d: CaptureState: %v", cut, err)
					}
					buf, err := json.Marshal(snap)
					if err != nil {
						t.Fatalf("cut %d: marshal: %v", cut, err)
					}
					var back StreamState
					if err := json.Unmarshal(buf, &back); err != nil {
						t.Fatalf("cut %d: unmarshal: %v", cut, err)
					}

					e2, err := New(cfg.Market, tr.Drivers, 7)
					if err != nil {
						t.Fatal(err)
					}
					e2.SetCandidateSource(src())
					var restored *Stream
					if m.batched {
						restored, err = e2.RestoreStream(&back, nil, 45)
					} else {
						restored, err = e2.RestoreStream(&back, diffRandom{}, 0)
					}
					if err != nil {
						t.Fatalf("cut %d: RestoreStream: %v", cut, err)
					}
					applyItems(t, restored, tr.Tasks, feed[cut:])
					got, err := restored.Finish()
					if err != nil {
						t.Fatalf("cut %d: Finish: %v", cut, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("cut %d: restored run diverged:\nwant served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f\ngot  served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f",
							cut, want.Served, want.Rejected, want.Cancelled, want.Revenue, want.TotalProfit,
							got.Served, got.Rejected, got.Cancelled, got.Revenue, got.TotalProfit)
					}
				}
			})
		}
	}
}

// TestStreamErrFinished: after Finish every mutator, snapshot and
// capture returns the typed sentinel instead of panicking.
func TestStreamErrFinished(t *testing.T) {
	cfg := trace.NewConfig(5, 10, 5, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	e, err := New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.NewStream(diffMaxMargin{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Finished() {
		t.Fatal("fresh stream reports finished")
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if !st.Finished() {
		t.Fatal("finished stream reports open")
	}
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrFinished) {
			t.Fatalf("%s on finished stream: %v, want ErrFinished", op, err)
		}
	}
	_, err = st.SubmitTask(tr.Tasks[0])
	check("SubmitTask", err)
	_, _, err = st.CancelTask(0, 1)
	check("CancelTask", err)
	check("JoinDriver", st.JoinDriver(0, 1))
	check("RetireDriver", st.RetireDriver(0, 1))
	_, err = st.AddDriver(tr.Drivers[0], 1)
	check("AddDriver", err)
	_, err = st.Step()
	check("Step", err)
	check("AdvanceTo", st.AdvanceTo(10))
	_, err = st.Snapshot()
	check("Snapshot", err)
	_, err = st.Finish()
	check("Finish", err)
	_, err = st.CaptureState()
	check("CaptureState", err)
}

// TestRestoreStreamValidates: corrupted states fail loudly and typed,
// not as index panics mid-replay.
func TestRestoreStreamValidates(t *testing.T) {
	cfg := trace.NewConfig(6, 10, 5, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	mkState := func() *StreamState {
		e, err := New(cfg.Market, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.NewStream(diffMaxMargin{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.SubmitTask(tr.Tasks[0]); err != nil {
			t.Fatal(err)
		}
		snap, err := st.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	fresh := func() *Engine {
		e, err := New(cfg.Market, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Sizing mismatch.
	bad := mkState()
	bad.Present = bad.Present[:1]
	if _, err := fresh().RestoreStream(bad, diffMaxMargin{}, 0); err == nil {
		t.Fatal("sizing mismatch accepted")
	}
	// Assignment out of range.
	bad = mkState()
	bad.Res.Assignment[99] = 0
	if _, err := fresh().RestoreStream(bad, diffMaxMargin{}, 0); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
	// Unknown event kind in the queue.
	bad = mkState()
	bad.Queue = append(bad.Queue, EventSnap{Kind: 99})
	if _, err := fresh().RestoreStream(bad, diffMaxMargin{}, 0); err == nil {
		t.Fatal("unknown event kind accepted")
	}
	// Instant restore without a dispatcher.
	if _, err := fresh().RestoreStream(mkState(), nil, 0); err == nil {
		t.Fatal("instant restore without dispatcher accepted")
	}
	// Batched restore with a bad window.
	batched := mkState()
	batched.Batch = &BatchSnap{}
	if _, err := fresh().RestoreStream(batched, nil, 0); err == nil {
		t.Fatal("batched restore without window accepted")
	}
	// The pristine state restores fine.
	if _, err := fresh().RestoreStream(mkState(), diffMaxMargin{}, 0); err != nil {
		t.Fatalf("clean state refused: %v", err)
	}
}
