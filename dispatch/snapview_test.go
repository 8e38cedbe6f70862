package dispatch

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The tests in this file hold the snapshot rail to moving state by
// reference: a cut encodes a view of the live run (sim's CaptureState)
// and a restore adopts what the decoder built, with every driver path
// cut from one block.

// cloneState deep-copies a captured state as CaptureState did before it
// returned a view of the live run: every slice and the assignment map
// are copied, each slice nil exactly where that copy made it nil.
func cloneState(st *sim.StreamState) *sim.StreamState {
	c := *st
	c.Drivers = append([]model.Driver(nil), st.Drivers...)
	c.States = append([]sim.DriverStateSnap{}, st.States...)
	c.Present = append([]bool(nil), st.Present...)
	c.Tasks = append([]model.Task(nil), st.Tasks...)
	c.Cancelled = append([]bool{}, st.Cancelled...)
	c.Queue = append([]sim.EventSnap{}, st.Queue...)
	c.Inflight = slices.Clone(st.Inflight)
	c.Revert = slices.Clone(st.Revert)
	c.Res.Assignment = maps.Clone(st.Res.Assignment)
	c.Res.DriverPaths = make([][]int, len(st.Res.DriverPaths))
	for i, p := range st.Res.DriverPaths {
		c.Res.DriverPaths[i] = slices.Clone(p)
	}
	if st.Batch != nil {
		b := *st.Batch
		b.Batch = append([]int(nil), st.Batch.Batch...)
		c.Batch = &b
	}
	return &c
}

// churnedDay is a churned trace as a market and its live feed.
func churnedDay(seed int64, tasks, drivers int) (model.Trace, Market, []durItem) {
	cfg := trace.NewConfig(seed, tasks, drivers, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(seed, 0.4, 0.3))
	market, feed := durFeed(tr)
	return tr, market, feed
}

// TestSnapshotCutAllocs: a cut allocates what the fleet size does not
// set. With the mutex held, writeSnapshot on a churned batched service
// mid-day allocates a few dozen objects at 1 000 drivers and at 10 000
// — the file's own handling, the sorted copies of the revocation maps —
// and none per driver who has served, so at most 128 where hundreds of
// drivers have. A journal record decodes without allocating.
func TestSnapshotCutAllocs(t *testing.T) {
	for _, drivers := range []int{1000, 10000} {
		tr, market, feed := churnedDay(27, drivers, drivers)
		svc, err := New(market, WithSeed(7), WithBatching(60, Hungarian),
			WithDurability(t.TempDir(), DurFsync("off"), DurSnapshotEvery(1<<30)))
		if err != nil {
			t.Fatal(err)
		}
		applyFeed(t, svc, tr, feed[:len(feed)/2])
		svc.mu.Lock()
		allocs := testing.AllocsPerRun(3, func() {
			if err := svc.writeSnapshot(); err != nil {
				t.Fatal(err)
			}
		})
		st, err := svc.st.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		served := 0
		for _, p := range st.Res.DriverPaths {
			if len(p) > 0 {
				served++
			}
		}
		svc.mu.Unlock()
		if _, err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if served <= 128 {
			t.Fatalf("%d drivers: only %d have served by the cut, too few to tell", drivers, served)
		}
		t.Logf("%d drivers, %d served by the cut: %v allocations a cut", drivers, served, allocs)
		if allocs > 128 {
			t.Errorf("%d drivers, %d served: a cut allocates %v objects, want at most 128", drivers, served, allocs)
		}
	}

	for _, rec := range sampleRecords() {
		switch rec.Kind {
		case recSubmit, recCancel, recRetire, recAdvance, recFinish:
		default:
			continue
		}
		data := appendRecord(nil, &rec)
		if n := testing.AllocsPerRun(50, func() {
			if _, err := decodeRecord(data); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("kind %d: decodeRecord allocates %v objects", rec.Kind, n)
		}
	}
}

// cutAndHalt drives a durable service through feed[:cut], cuts a
// snapshot there with check run on the view under the mutex (a false
// return moves the cut one item on), halts, and returns the directory,
// the cut taken and the snapshot bytes. Nothing is journaled after the
// snapshot, so a Restore of the directory loads it and replays nothing.
func cutAndHalt(t *testing.T, tr model.Trace, market Market, opts []Option, feed []durItem, cut int,
	check func(*snapPayload) bool) (string, int, []byte) {
	t.Helper()
	dir := t.TempDir()
	svc, err := New(market, append(slices.Clone(opts), WithDurability(dir, DurFsync("off"), DurSnapshotEvery(1<<30)))...)
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, svc, tr, feed[:cut])
	for ; ; cut++ {
		if cut == len(feed) {
			t.Fatal("no cut of the day passes the check")
		}
		svc.mu.Lock()
		snap, err := svc.captureSnapshot(new([]int))
		ok := err == nil && check(&snap)
		if ok {
			if err := svc.writeSnapshot(); err != nil {
				t.Fatal(err)
			}
		}
		svc.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
		applyFeed(t, svc, tr, feed[cut:cut+1])
	}
	if _, err := svc.Halt(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.NextLSN != rec.SnapshotLSN {
		t.Fatalf("the log does not end in the cut's snapshot (snapshot LSN %d, next %d)", rec.SnapshotLSN, rec.NextLSN)
	}
	return dir, cut, rec.Snapshot
}

// finishDay restores dir, applies the rest of the day and closes.
func finishDay(t *testing.T, dir string, tr model.Trace, feed []durItem) (*Service, Stats) {
	t.Helper()
	svc, err := Restore(dir, DurFsync("off"))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, svc, tr, feed)
	stats, err := svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	stats.FeedDrops = 0
	return svc, stats
}

// referenceDay is the uninterrupted in-memory run of the whole feed.
func referenceDay(t *testing.T, tr model.Trace, market Market, opts []Option, feed []durItem) (*Service, Stats) {
	t.Helper()
	ref, err := New(market, opts...)
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, ref, tr, feed)
	stats, err := ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	stats.FeedDrops = 0
	return ref, stats
}

// shuttleDay is a day in which drivers 0 and 2, 22 km apart and on
// shift all day, serve every other order each, shuttling a kilometre to
// and fro where they stand; driver 1 between them is never free, so her
// path stays nil and the other two sit next to each other in a decoded
// snapshot's block.
func shuttleDay(orders int) model.Trace {
	a := geo.Point{Lat: 41.15, Lon: -8.61}
	b := geo.Point{Lat: a.Lat + 0.2, Lon: a.Lon}
	tr := model.Trace{Drivers: []model.Driver{
		{ID: 0, Source: a, Dest: a, End: 1e6},
		{ID: 1, Source: b, Dest: b, End: 1},
		{ID: 2, Source: b, Dest: b, End: 1e6},
	}}
	for k := range orders {
		home, leg := a, k/2
		if k%2 == 1 {
			home = b
		}
		from, to := home, geo.Point{Lat: home.Lat + 0.009, Lon: home.Lon}
		if leg%2 == 1 {
			from, to = to, from
		}
		t := 300*float64(k) + 1
		tr.Tasks = append(tr.Tasks, model.Task{ID: k, Publish: t, Source: from, Dest: to,
			StartBy: t + 300, EndBy: t + 900, Price: 10, WTP: 15})
	}
	return tr
}

// TestRestoredPathsDoNotAlias: the decoder cuts every driver path from
// one block, each capped at its own length. A day is cut and restored
// where two drivers whose decoded paths sit next to each other in the
// block both serve again afterwards: an append that wrote past its own
// path would land in the neighbour's first slot. Every path, the books
// and the decision digest must equal the uninterrupted run's.
func TestRestoredPathsDoNotAlias(t *testing.T) {
	tr := shuttleDay(12)
	market, feed := durFeed(tr)
	for _, batched := range []bool{false, true} {
		opts := []Option{WithSeed(7), WithDispatcher(Nearest)}
		if batched {
			opts = append(opts, WithBatching(45, Hungarian))
		}
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			ref, want := referenceDay(t, tr, market, opts, feed)
			if want.Served != len(tr.Tasks) {
				t.Fatalf("the shuttle served %d of %d orders", want.Served, len(tr.Tasks))
			}
			dir, cut, data := cutAndHalt(t, tr, market, opts, feed, len(feed)/2, func(*snapPayload) bool { return true })
			snap, err := decodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			paths := snap.State.Res.DriverPaths
			for d, p := range paths {
				if cap(p) != len(p) {
					t.Fatalf("driver %d: decoded path has cap %d beyond its length %d", d, cap(p), len(p))
				}
			}
			p0, p2 := paths[0], paths[2]
			if paths[1] != nil || len(p0) < 2 || len(p2) < 2 ||
				unsafe.Pointer(&p2[0]) != unsafe.Add(unsafe.Pointer(&p0[len(p0)-1]), 8) {
				t.Fatalf("cut %d: paths %v are not two neighbours in one block around a nil", cut, paths)
			}
			if len(ref.final.DriverPaths[0]) <= len(p0) || len(ref.final.DriverPaths[2]) <= len(p2) {
				t.Fatalf("cut %d: the neighbours do not both serve after the cut", cut)
			}

			got, stats := finishDay(t, dir, tr, feed[cut:])
			for d := range ref.final.DriverPaths {
				if !slices.Equal(got.final.DriverPaths[d], ref.final.DriverPaths[d]) {
					t.Fatalf("cut %d: driver %d path %v, uninterrupted %v",
						cut, d, got.final.DriverPaths[d], ref.final.DriverPaths[d])
				}
			}
			if !reflect.DeepEqual(want, stats) || !reflect.DeepEqual(ref.final, got.final) {
				t.Fatalf("cut %d: restored books differ\nwant %+v\ngot  %+v", cut, want, stats)
			}
			if got.digest != ref.digest {
				t.Fatalf("cut %d: digest %016x, uninterrupted %016x", cut, got.digest, ref.digest)
			}
		})
	}
}

// TestSnapshotViewBytes: the bytes a cut encodes from the live view
// equal the bytes of a deep copy of the same capture, on an instant day
// and on a batched churned day cut while a window is open with in-flight
// and revert entries. Two restores of the same bytes settle the same
// books and digest as each other and as the uninterrupted run.
func TestSnapshotViewBytes(t *testing.T) {
	tr, market, feed := churnedDay(62, 300, 40)
	for _, batched := range []bool{false, true} {
		opts := []Option{WithSeed(7), WithDispatcher(Random)}
		busy := func(snap *snapPayload) bool { return len(snap.State.Inflight) > 0 }
		if batched {
			opts = []Option{WithSeed(7), WithBatching(45, Hungarian)}
			busy = func(snap *snapPayload) bool {
				st := snap.State
				return st.Batch.Open && len(st.Batch.Batch) > 0 && len(st.Inflight) > 0 && len(st.Revert) > 0
			}
		}
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			var fromCopy []byte
			dir, cut, data := cutAndHalt(t, tr, market, opts, feed, 0, func(snap *snapPayload) bool {
				if !busy(snap) {
					return false
				}
				deep := *snap
				deep.State = cloneState(snap.State)
				deep.Retired = slices.Clone(snap.Retired)
				deep.Decided = maps.Clone(snap.Decided)
				fromCopy = appendSnapshot(nil, &deep, new([]int))
				return true
			})
			if !bytes.Equal(data, fromCopy) {
				t.Fatalf("cut %d: the view encodes to %d bytes that differ from the deep copy's %d", cut, len(data), len(fromCopy))
			}

			ref, want := referenceDay(t, tr, market, opts, feed)
			var digests []uint64
			for range 2 {
				again := t.TempDir()
				if err := os.CopyFS(again, os.DirFS(dir)); err != nil {
					t.Fatal(err)
				}
				got, stats := finishDay(t, again, tr, feed[cut:])
				if !reflect.DeepEqual(want, stats) || !reflect.DeepEqual(ref.final, got.final) {
					t.Fatalf("cut %d: restored books differ\nwant %+v\ngot  %+v", cut, want, stats)
				}
				digests = append(digests, got.digest)
			}
			if digests[0] != digests[1] || digests[0] != ref.digest {
				t.Fatalf("cut %d: digests %016x and %016x, uninterrupted %016x", cut, digests[0], digests[1], ref.digest)
			}
		})
	}
}
