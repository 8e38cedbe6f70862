package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pubDriver converts a trace driver to the public type, registering the
// engine index as the public ID so replays can address both sides with
// the same numbers.
func pubDriver(i int, d model.Driver, joinAt float64) Driver {
	return Driver{
		ID: i, Source: Point(d.Source), Dest: Point(d.Dest),
		Start: d.Start, End: d.End, SpeedKmh: d.SpeedKmh, JoinAt: joinAt,
	}
}

func pubTask(i int, t model.Task) Task {
	return Task{
		ID: i, Publish: t.Publish, Source: Point(t.Source), Dest: Point(t.Dest),
		StartBy: t.StartBy, EndBy: t.EndBy, Price: t.Price, WTP: t.WTP,
	}
}

// replayTrace feeds a whole trace through a fresh Service in the
// canonical merge order — ascending time, retirements before
// cancellations before arrivals at one instant, original order within a
// kind — and returns the service after Close. Joins ride in as each
// driver's JoinAt.
func replayTrace(t *testing.T, tr model.Trace, opts ...Option) *Service {
	t.Helper()
	joinAt := make(map[int]float64)
	type item struct {
		at     float64
		rank   int
		isTask bool
		idx    int // task index (arrival, cancel) or driver index (retire)
		kind   model.EventKind
	}
	var feed []item
	for _, ev := range tr.Events {
		switch ev.Kind {
		case model.EventJoin:
			joinAt[ev.Driver] = ev.At
		case model.EventRetire:
			feed = append(feed, item{at: ev.At, rank: 1, idx: ev.Driver, kind: ev.Kind})
		case model.EventCancel:
			feed = append(feed, item{at: ev.At, rank: 2, idx: ev.Task, kind: ev.Kind})
		}
	}
	for i := range tr.Tasks {
		feed = append(feed, item{at: tr.Tasks[i].Publish, rank: 5, isTask: true, idx: i})
	}
	sort.SliceStable(feed, func(a, b int) bool {
		if feed[a].at != feed[b].at {
			return feed[a].at < feed[b].at
		}
		return feed[a].rank < feed[b].rank
	})

	m := Market{}
	for i, d := range tr.Drivers {
		m.Drivers = append(m.Drivers, pubDriver(i, d, joinAt[i]))
	}
	svc, err := New(m, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for _, it := range feed {
		switch {
		case it.isTask:
			if _, err := svc.SubmitTask(ctx, pubTask(it.idx, tr.Tasks[it.idx])); err != nil {
				t.Fatalf("SubmitTask(%d): %v", it.idx, err)
			}
		case it.kind == model.EventRetire:
			if err := svc.RetireDriver(ctx, it.idx, it.at); err != nil {
				t.Fatalf("RetireDriver(%d): %v", it.idx, err)
			}
		default:
			if _, err := svc.CancelTask(ctx, it.idx, it.at); err != nil {
				t.Fatalf("CancelTask(%d): %v", it.idx, err)
			}
		}
	}
	return svc
}

// TestServiceReplayBitIdenticalToBatch is the package's differential
// contract: submitting a generated day — churn and cancellations
// included — event by event through the public Service produces a final
// result bit-identical to Engine.RunScenario replaying the same trace
// in one call over the engine's exact scan, for every policy. The
// "default" column is the service as a caller with no opinion gets it —
// dispatch.New binds the indexed source, selected by no option; the
// shards=N columns, named from before the zone partition was deleted,
// pass N to the deprecated WithShards, which must change nothing.
func TestServiceReplayBitIdenticalToBatch(t *testing.T) {
	const seed = 11
	policies := []struct {
		p Policy
		d sim.Dispatcher
	}{
		{MaxMargin, online.MaxMargin{}},
		{Nearest, online.Nearest{}},
		{Random, online.Random{}},
	}
	scenarios := []struct {
		drivers, tasks int
		churn, cancel  float64
	}{
		{30, 150, 0, 0},
		{30, 150, 0.5, 0.4},
	}
	for si, sc := range scenarios {
		cfg := trace.NewConfig(int64(40+si), sc.tasks, sc.drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		if sc.churn > 0 || sc.cancel > 0 {
			tr.Events = trace.WithChurn(tr, trace.DefaultChurn(int64(si), sc.churn, sc.cancel))
		}
		for _, pol := range policies {
			for _, shards := range []int{0, 1, 2, 4} { // 0: no WithShards at all
				name := fmt.Sprintf("s%d/%v/default", si, pol.p)
				opts := []Option{WithDispatcher(pol.p), WithSeed(seed), WithStrictTimes()}
				if shards > 0 {
					name = fmt.Sprintf("s%d/%v/shards=%d", si, pol.p, shards)
					opts = append(opts, WithShards(shards))
				}
				t.Run(name, func(t *testing.T) {
					eng, err := sim.New(cfg.Market, tr.Drivers, seed)
					if err != nil {
						t.Fatal(err)
					}
					eng.SetCandidateSource(&sim.ScanSource{})
					batch := eng.RunScenario(tr.Tasks, tr.Events, pol.d)

					svc := replayTrace(t, tr, opts...)
					stats, err := svc.Close()
					if err != nil {
						t.Fatal(err)
					}
					if svc.final == nil {
						t.Fatal("service kept no final result")
					}
					if !reflect.DeepEqual(batch, *svc.final) {
						t.Fatalf("service replay diverged from batch:\nbatch:   served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f\nservice: served=%d rejected=%d cancelled=%d revenue=%.9f profit=%.9f",
							batch.Served, batch.Rejected, batch.Cancelled, batch.Revenue, batch.TotalProfit,
							stats.Served, stats.Rejected, stats.Cancelled, stats.Revenue, stats.Profit)
					}
					if stats.Served != batch.Served || stats.Revenue != batch.Revenue {
						t.Fatalf("Close stats disagree with result: %+v vs served=%d revenue=%g",
							stats, batch.Served, batch.Revenue)
					}
				})
			}
		}
	}
}

// TestServiceTypedErrors pins the error contract callers program
// against.
func TestServiceTypedErrors(t *testing.T) {
	ctx := context.Background()
	cfg := trace.NewConfig(3, 20, 5, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	m := Market{}
	for i, d := range tr.Drivers {
		m.Drivers = append(m.Drivers, pubDriver(i, d, 0))
	}

	if _, err := New(m, WithShards(0)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("WithShards(0): %v", err)
	}
	if _, err := New(Market{Drivers: []Driver{m.Drivers[0], m.Drivers[0]}}); !errors.Is(err, ErrDuplicateDriver) {
		t.Errorf("duplicate initial driver: %v", err)
	}
	bad := m.Drivers[0]
	bad.ID, bad.End = 99, bad.Start // empty working window
	if _, err := New(Market{Drivers: []Driver{bad}}); !errors.Is(err, ErrInvalidDriver) {
		t.Errorf("invalid driver: %v", err)
	}

	svc, err := New(m, WithStrictTimes())
	if err != nil {
		t.Fatal(err)
	}
	task := pubTask(0, tr.Tasks[0])
	if _, err := svc.SubmitTask(ctx, task); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTask(ctx, task); !errors.Is(err, ErrDuplicateTask) {
		t.Errorf("duplicate task: %v", err)
	}
	badTask := pubTask(1, tr.Tasks[1])
	badTask.StartBy = badTask.Publish // violates publish < startBy
	if _, err := svc.SubmitTask(ctx, badTask); !errors.Is(err, ErrInvalidTask) {
		t.Errorf("invalid task: %v", err)
	}
	if _, err := svc.CancelTask(ctx, 12345, task.StartBy); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("unknown task cancel: %v", err)
	}
	if err := svc.RetireDriver(ctx, 12345, task.Publish); !errors.Is(err, ErrUnknownDriver) {
		t.Errorf("unknown driver retire: %v", err)
	}

	// Strict ordering: anything before the decision time of task 0 is
	// out of order now.
	late := pubTask(7, tr.Tasks[1])
	late.Publish = task.Publish - 1
	if _, err := svc.SubmitTask(ctx, late); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order submit: %v", err)
	}

	// A cancelled context is honored before any market mutation.
	dead, kill := context.WithCancel(ctx)
	kill()
	if _, e := svc.Snapshot(dead); !errors.Is(e, context.Canceled) {
		t.Errorf("cancelled context: %v", e)
	}
	if _, e := svc.SubmitTask(dead, pubTask(9, tr.Tasks[3])); !errors.Is(e, context.Canceled) {
		t.Errorf("cancelled context submit: %v", e)
	}

	if _, err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTask(ctx, pubTask(8, tr.Tasks[2])); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v", err)
	}
	if stats, err := svc.Close(); err != nil || stats.Tasks != 1 {
		t.Errorf("second close: %+v, %v", stats, err)
	}
}

// TestNonFiniteInputsRejected: NaN fails every comparison, so a
// validator written as "reject if a >= b" lets it through to the event
// heap. Every float a caller controls must be refused with the typed
// sentinel when it is NaN or ±Inf, on the instant and the batched
// service, and the refusal must leave the books alone.
func TestNonFiniteInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tasks := []struct {
		name string
		mut  func(*Task)
	}{
		{"NaN publish", func(k *Task) { k.Publish = nan }},
		{"-Inf publish", func(k *Task) { k.Publish = -inf }},
		{"NaN start deadline", func(k *Task) { k.StartBy = nan }},
		{"NaN end deadline", func(k *Task) { k.EndBy = nan }},
		{"+Inf end deadline", func(k *Task) { k.EndBy = inf }},
		{"NaN price", func(k *Task) { k.Price = nan }},
		{"+Inf price", func(k *Task) { k.Price = inf }},
		{"NaN WTP", func(k *Task) { k.WTP = nan }},
		{"+Inf WTP", func(k *Task) { k.WTP = inf }},
		{"NaN source", func(k *Task) { k.Source.Lat = nan }},
		{"+Inf dest", func(k *Task) { k.Dest.Lon = inf }},
	}
	drivers := []struct {
		name string
		mut  func(*Driver)
	}{
		{"NaN start", func(d *Driver) { d.Start = nan }},
		{"-Inf start", func(d *Driver) { d.Start = -inf }},
		{"NaN end", func(d *Driver) { d.End = nan }},
		{"+Inf end", func(d *Driver) { d.End = inf }},
		{"NaN speed", func(d *Driver) { d.SpeedKmh = nan }},
		{"+Inf speed", func(d *Driver) { d.SpeedKmh = inf }},
		{"NaN join", func(d *Driver) { d.JoinAt = nan }},
		{"+Inf join", func(d *Driver) { d.JoinAt = inf }},
		{"NaN source", func(d *Driver) { d.Source.Lon = nan }},
	}
	ctx := context.Background()
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"instant", nil},
		{"batched", []Option{WithBatching(60, Hungarian)}},
	} {
		svc, err := New(overloadMarket(), mode.opts...)
		if err != nil {
			t.Fatalf("%s: New: %v", mode.name, err)
		}
		if _, err := svc.SubmitTask(ctx, overloadTask(1, 10)); err != nil {
			t.Fatalf("%s: valid task: %v", mode.name, err)
		}
		before, err := svc.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range tasks {
			k := overloadTask(2, 20)
			tc.mut(&k)
			if _, err := svc.SubmitTask(ctx, k); !errors.Is(err, ErrInvalidTask) {
				t.Errorf("%s: SubmitTask(%s): err = %v, want ErrInvalidTask", mode.name, tc.name, err)
			}
		}
		for _, tc := range drivers {
			d := overloadMarket().Drivers[0]
			d.ID = 900
			tc.mut(&d)
			if err := svc.AddDriver(ctx, d); !errors.Is(err, ErrInvalidDriver) {
				t.Errorf("%s: AddDriver(%s): err = %v, want ErrInvalidDriver", mode.name, tc.name, err)
			}
			if _, err := New(Market{Drivers: []Driver{d}}, mode.opts...); !errors.Is(err, ErrInvalidDriver) {
				t.Errorf("%s: New(%s): err = %v, want ErrInvalidDriver", mode.name, tc.name, err)
			}
		}
		if after, err := svc.Snapshot(ctx); err != nil || after != before {
			t.Errorf("%s: refused inputs moved the books: %+v -> %+v (%v)", mode.name, before, after, err)
		}
		if _, err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceFeedAndChurn drives joins, retirements, revocations and
// the subscription feed through one small scripted market.
func TestServiceFeedAndChurn(t *testing.T) {
	ctx := context.Background()
	base := Point{Lat: 41.15, Lon: -8.61}
	near := func(dlat, dlon float64) Point { return Point{Lat: base.Lat + dlat, Lon: base.Lon + dlon} }
	svc, err := New(Market{Drivers: []Driver{
		{ID: 100, Source: base, Dest: near(0.02, 0.02), Start: 0, End: 7200},
	}})
	if err != nil {
		t.Fatal(err)
	}
	feed, cancel := svc.Subscribe(16)
	defer cancel()

	task := Task{ID: 1, Publish: 100, Source: near(0.001, 0), Dest: near(0.01, 0.01),
		StartBy: 700, EndBy: 3600, Price: 10}
	a, err := svc.SubmitTask(ctx, task)
	if err != nil || !a.Assigned || a.DriverID != 100 {
		t.Fatalf("assignment %+v, %v", a, err)
	}
	if a.PickupBy <= 100 || a.PickupBy > 700 {
		t.Fatalf("pickup estimate %g outside (100, 700]", a.PickupBy)
	}

	// Rider cancels before the pickup: the assignment is revoked.
	out, err := svc.CancelTask(ctx, 1, a.PickupBy-1)
	if err != nil || !out.Cancelled || out.FreedDriverID != 100 {
		t.Fatalf("cancel outcome %+v, %v", out, err)
	}
	// Cancelling again is moot.
	if out2, _ := svc.CancelTask(ctx, 1, a.PickupBy); out2.Cancelled {
		t.Fatalf("double cancel honored: %+v", out2)
	}

	// The books balance even while the revocation's driver-free event is
	// still queued (no further submission has forced it yet): the
	// revoked assignment is not counted as served, nor its fare as
	// revenue.
	mid, err := svc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Served != 0 || mid.Cancelled != 1 || mid.Revenue != 0 {
		t.Fatalf("snapshot with pending revocation: %+v", mid)
	}
	if mid.Served+mid.Rejected+mid.Cancelled != mid.Tasks {
		t.Fatalf("books do not balance mid-revocation: %+v", mid)
	}

	// The freed driver retires; a new driver joins and serves the next task.
	if err := svc.RetireDriver(ctx, 100, 800); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddDriver(ctx, Driver{ID: 200, Source: base, Dest: near(0.02, 0.02),
		Start: 0, End: 7200, JoinAt: 900}); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddDriver(ctx, Driver{ID: 200, Source: base, Dest: base,
		Start: 0, End: 7200}); !errors.Is(err, ErrDuplicateDriver) {
		t.Fatalf("duplicate present driver: %v", err)
	}
	a2, err := svc.SubmitTask(ctx, Task{ID: 2, Publish: 1000, Source: near(0.001, 0),
		Dest: near(0.01, 0.01), StartBy: 1600, EndBy: 4600, Price: 10})
	if err != nil || !a2.Assigned || a2.DriverID != 200 {
		t.Fatalf("post-churn assignment %+v, %v", a2, err)
	}

	// Retired driver 100 re-enters at a future time: the announcement is
	// scheduled, so she is registered but not yet present.
	if err := svc.AddDriver(ctx, Driver{ID: 100, Source: base, Dest: near(0.02, 0.02),
		Start: 0, End: 7200, JoinAt: 1100}); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	snap, err := svc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PresentDrivers != 1 || snap.Served != 1 || snap.Cancelled != 1 {
		t.Fatalf("snapshot %+v", snap)
	}

	stats, err := svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != 1 || stats.Cancelled != 1 || stats.Rejected != 0 {
		t.Fatalf("final stats %+v", stats)
	}
	// Close drained the scheduled rejoin: both drivers ended present.
	if stats.PresentDrivers != 2 {
		t.Fatalf("final present drivers %d, want 2", stats.PresentDrivers)
	}

	want := []EventType{EventAssigned, EventCancelled, EventDriverRetired,
		EventDriverJoined, EventAssigned, EventDriverJoined}
	var got []EventType
	for ev := range feed {
		got = append(got, ev.Type)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("feed %v, want %v", got, want)
	}
}

// TestServiceConcurrentSoak hammers one service from many goroutines —
// submitters, cancellers, fleet churn, snapshot readers, a feed
// consumer — and checks the books balance afterwards. Run under -race
// this is the service's concurrency guarantee; it is skipped in short
// mode.
func TestServiceConcurrentSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		submitters = 8
		perWorker  = 150
	)
	cfg := trace.NewConfig(21, submitters*perWorker, 120, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	m := Market{}
	for i, d := range tr.Drivers {
		m.Drivers = append(m.Drivers, pubDriver(i, d, 0))
	}
	svc, err := New(m, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	feed, cancelSub := svc.Subscribe(4096)
	defer cancelSub()
	var consumed sync.WaitGroup
	consumed.Add(1)
	events := 0
	go func() {
		defer consumed.Done()
		for range feed {
			events++
		}
	}()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, submitters+2)
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
				// Some riders think better of it immediately.
				if a.Assigned && rng.Float64() < 0.2 {
					if _, err := svc.CancelTask(ctx, ti, a.DecidedAt+1); err != nil {
						errs <- fmt.Errorf("cancel %d: %w", ti, err)
						return
					}
				}
			}
		}()
	}
	// Fleet churn rider: retire and re-announce a rotating driver.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			id := i % len(m.Drivers)
			if err := svc.RetireDriver(ctx, id, 0); err != nil && !errors.Is(err, ErrUnknownDriver) {
				errs <- fmt.Errorf("retire %d: %w", id, err)
				return
			}
			d := m.Drivers[id]
			d.JoinAt = 0
			if err := svc.AddDriver(ctx, d); err != nil && !errors.Is(err, ErrDuplicateDriver) {
				errs <- fmt.Errorf("rejoin %d: %w", id, err)
				return
			}
		}
	}()
	// Snapshot reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := svc.Snapshot(ctx); err != nil {
				errs <- fmt.Errorf("snapshot: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
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
	if stats.Served+stats.Rejected+stats.Cancelled != total {
		t.Fatalf("books do not balance: %+v", stats)
	}
	if stats.Served == 0 || events == 0 {
		t.Fatalf("nothing happened: %+v, %d events", stats, events)
	}
}
