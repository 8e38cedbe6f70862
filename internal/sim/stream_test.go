package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/trace"
)

// replayThroughStream feeds a whole trace through a Stream in the
// canonical merge order — ascending time, retirements and cancellations
// before arrivals at the same instant, original order within a kind —
// which is exactly the order RunScenario's heap would drain the same
// events in. Joins and retirements are pre-scheduled as fleet events;
// cancellations and arrivals are submitted live.
func replayThroughStream(t *testing.T, e *Engine, d Dispatcher, tasks []model.Task, events []model.MarketEvent) Result {
	t.Helper()
	var fleet []model.MarketEvent
	type item struct {
		at     float64
		rank   int
		isTask bool
		task   int // arrival: task index; cancel: cancelled task index
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

	st, err := e.NewStream(d, fleet)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
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

// TestStreamReplayBitIdenticalToRunScenario is the streaming half of
// the engine's differential contract: replaying any trace — churn,
// cancellations, every candidate source — one event at a time through a
// Stream must produce the same Result, bit for bit, as RunScenario on
// the whole trace. The sharded-N rows keep their names from before the
// zone partition was deleted and go through the deprecated
// NewShardedSource shim, which the frozen benchmark/ still calls: they
// hold it to the same contract until it is deleted.
func TestStreamReplayBitIdenticalToRunScenario(t *testing.T) {
	dispatchers := []Dispatcher{diffMaxMargin{}, diffNearest{}, diffRandom{}}
	scenarios := []struct {
		drivers, tasks int
		churn, cancel  float64
		dm             trace.DriverModel
	}{
		{25, 120, 0, 0, trace.Hitchhiking},
		{25, 120, 0.4, 0.3, trace.Hitchhiking},
		{40, 150, 0.5, 0.4, trace.HomeWorkHome},
	}
	sources := []struct {
		name string
		mk   func() CandidateSource
	}{
		{"scan", func() CandidateSource { return &ScanSource{} }},
		{"grid", func() CandidateSource { return NewGridSource(nil) }},
		{"sharded-1", func() CandidateSource { return NewShardedSource(1) }},
		{"sharded-2", func() CandidateSource { return NewShardedSource(2) }},
		{"sharded-4", func() CandidateSource { return NewShardedSource(4) }},
	}
	for si, sc := range scenarios {
		cfg := trace.NewConfig(int64(100+si), sc.tasks, sc.drivers, sc.dm)
		tr := trace.NewGenerator(cfg).Generate(nil)
		var events []model.MarketEvent
		if sc.churn > 0 || sc.cancel > 0 {
			events = trace.WithChurn(tr, trace.DefaultChurn(int64(si), sc.churn, sc.cancel))
		}
		for _, d := range dispatchers {
			for _, src := range sources {
				name := fmt.Sprintf("s%d/%s/%s", si, d.Name(), src.name)
				t.Run(name, func(t *testing.T) {
					be, err := New(cfg.Market, tr.Drivers, 7)
					if err != nil {
						t.Fatal(err)
					}
					be.SetCandidateSource(src.mk())
					batch := be.RunScenario(tr.Tasks, events, d)

					se, err := New(cfg.Market, tr.Drivers, 7)
					if err != nil {
						t.Fatal(err)
					}
					se.SetCandidateSource(src.mk())
					streamed := replayThroughStream(t, se, d, tr.Tasks, events)
					auditIndex(t, "batch run", be)
					auditIndex(t, "streamed run", se)

					if !reflect.DeepEqual(batch, streamed) {
						t.Fatalf("stream replay diverged from RunScenario:\nbatch:  served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f\nstream: served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f",
							batch.Served, batch.Rejected, batch.Cancelled, batch.Revenue, batch.TotalProfit,
							streamed.Served, streamed.Rejected, streamed.Cancelled, streamed.Revenue, streamed.TotalProfit)
					}
				})
			}
		}
	}
}

// TestStreamDynamicDriverAppend exercises the capability batch runs
// cannot express: a driver unknown at construction joins mid-stream and
// serves demand, under every candidate source.
func TestStreamDynamicDriverAppend(t *testing.T) {
	mkt := model.DefaultMarket()
	base := geo.Point{Lat: 41.15, Lon: -8.61}
	near := func(dlat, dlon float64) geo.Point {
		return geo.Point{Lat: base.Lat + dlat, Lon: base.Lon + dlon}
	}
	// One far-away registered driver who can never reach the demand.
	far := model.Driver{ID: 0, Source: near(0.5, 0.5), Dest: near(0.5, 0.5), Start: 0, End: 7200}
	task := func(id int, publish float64) model.Task {
		return model.Task{
			ID: id, Publish: publish, Source: near(0.001, 0), Dest: near(0.01, 0.01),
			StartBy: publish + 600, EndBy: publish + 3600, Price: 10, WTP: 12,
		}
	}
	for _, src := range []struct {
		name, source string // the test's name, the source's Name
		mk           func() CandidateSource
	}{
		{"scan", "scan", func() CandidateSource { return &ScanSource{} }},
		{"grid", "indexed", func() CandidateSource { return NewGridSource(nil) }},
		{"sharded-4", "indexed", func() CandidateSource { return NewShardedSource(4) }},
	} {
		t.Run(src.name, func(t *testing.T) {
			e, err := New(mkt, []model.Driver{far}, 1)
			if err != nil {
				t.Fatal(err)
			}
			e.SetCandidateSource(src.mk())
			st, err := e.NewStream(diffMaxMargin{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Engine() != e || e.source.Name() != src.source {
				t.Fatalf("stream of engine %p over source %q, want %p over %q", st.Engine(), e.source.Name(), e, src.source)
			}
			if dec, err := st.SubmitTask(task(0, 100)); err != nil {
				t.Fatalf("SubmitTask: %v", err)
			} else if dec.Assigned {
				t.Fatalf("far-away driver took task: %+v", dec)
			}
			// Announced for t=200 while the market is at t=100: she is
			// registered but invisible until her join fires.
			idx, err := st.AddDriver(model.Driver{ID: 1, Source: base, Dest: near(0.02, 0.02), Start: 0, End: 7200}, 200)
			if err != nil {
				t.Fatalf("AddDriver: %v", err)
			}
			if idx != 1 || st.DriverCount() != 2 || st.PresentDrivers() != 1 || st.Present(idx) {
				t.Fatalf("after scheduled append: idx=%d drivers=%d present=%d", idx, st.DriverCount(), st.PresentDrivers())
			}
			// A task published before her join time cannot be assigned to
			// her, even though her shift and deadlines would allow it —
			// the platform does not know she exists yet.
			early := task(1, 150)
			early.StartBy = 900
			if dec, err := st.SubmitTask(early); err != nil {
				t.Fatalf("SubmitTask: %v", err)
			} else if dec.Assigned {
				t.Fatalf("pending driver dispatched before her join: %+v", dec)
			}
			dec, err := st.SubmitTask(task(2, 300))
			if err != nil {
				t.Fatalf("SubmitTask: %v", err)
			}
			if !dec.Assigned || dec.Driver != idx {
				t.Fatalf("appended driver did not take the task: %+v", dec)
			}
			if st.PresentDrivers() != 2 || !st.Present(idx) || st.TaskPublish(1) != 150 {
				t.Fatalf("present=%d (driver %d: %v) after the join fired, task 1 published at %g",
					st.PresentDrivers(), idx, st.Present(idx), st.TaskPublish(1))
			}
			if err := st.RetireDriver(idx, 300); err != nil { // at the current instant: applied now
				t.Fatalf("RetireDriver: %v", err)
			}
			if st.PresentDrivers() != 1 {
				t.Fatalf("present=%d after retire", st.PresentDrivers())
			}
			res, err := st.Finish()
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if res.Served != 1 || res.PerDriverTasks[idx] != 1 {
				t.Fatalf("final result: %+v", res)
			}
			auditIndex(t, "after an announced driver joined, served and retired", e)
		})
	}
}

// TestStreamLateEventsClampToNow: submissions with timestamps in the
// past are processed at the stream's current time, and the clock never
// runs backwards.
func TestStreamLateEventsClamp(t *testing.T) {
	cfg := trace.NewConfig(5, 40, 10, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	e, err := New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.NewStream(diffMaxMargin{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AdvanceTo(40000); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	if st.Now() != 40000 {
		t.Fatalf("Now=%g after AdvanceTo", st.Now())
	}
	early := tr.Tasks[0] // publishes long before 40000
	if early.Publish >= 40000 {
		t.Fatalf("fixture broken: first task publishes at %g", early.Publish)
	}
	dec, err := st.SubmitTask(early)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if dec.At != 40000 {
		t.Fatalf("late submission decided at %g, want clamped 40000", dec.At)
	}
	if st.Now() != 40000 {
		t.Fatalf("Now moved backwards to %g", st.Now())
	}
	if _, err := st.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestStreamSnapshotTracksRun: the mid-run snapshot agrees with the
// final settled result on an event-free day.
func TestStreamSnapshotTracksRun(t *testing.T) {
	cfg := trace.NewConfig(9, 80, 15, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	e, err := New(cfg.Market, tr.Drivers, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.NewStream(diffMaxMargin{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tr.Tasks {
		if _, err := st.SubmitTask(task); err != nil {
			t.Fatalf("SubmitTask: %v", err)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	final, err := st.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if snap.Served != final.Served || snap.Rejected != final.Rejected ||
		snap.Revenue != final.Revenue || snap.TotalProfit != final.TotalProfit {
		t.Fatalf("snapshot %+v diverges from final %+v", snap, final)
	}
	if snap.Assignment != nil || snap.DriverPaths != nil {
		t.Fatal("snapshot leaked live bookkeeping")
	}
}
