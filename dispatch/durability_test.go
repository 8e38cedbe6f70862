package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wal"
)

// durItem is one externally-injected operation of a replayed day.
type durItem struct {
	at     float64
	rank   int
	isTask bool
	idx    int
	kind   model.EventKind
}

// durFeed splits a trace into the market (with join times) and the
// ordered live operations, mirroring replayTrace's canonical order.
func durFeed(tr model.Trace) (Market, []durItem) {
	joinAt := make(map[int]float64)
	var feed []durItem
	for _, ev := range tr.Events {
		switch ev.Kind {
		case model.EventJoin:
			joinAt[ev.Driver] = ev.At
		case model.EventRetire:
			feed = append(feed, durItem{at: ev.At, rank: 1, idx: ev.Driver, kind: ev.Kind})
		case model.EventCancel:
			feed = append(feed, durItem{at: ev.At, rank: 2, idx: ev.Task, kind: ev.Kind})
		}
	}
	for i := range tr.Tasks {
		feed = append(feed, durItem{at: tr.Tasks[i].Publish, rank: 5, isTask: true, idx: i})
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
	return m, feed
}

func applyFeed(t testing.TB, svc *Service, tr model.Trace, items []durItem) {
	t.Helper()
	ctx := context.Background()
	for _, it := range items {
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
}

// TestDurableRestoreDifferential is the tentpole's crash contract: a
// durable service killed at randomized mid-day points (the log simply
// abandoned, never flushed gracefully) and rebuilt with Restore, then
// driven through the remainder of the day, settles books BIT-IDENTICAL
// to an uninterrupted in-memory run — across churn/cancel traces,
// instant and batched dispatch, with and without snapshots bounding the
// replay. The shards-N columns predate the deletion of the zone
// partition: N goes to the deprecated WithShards, which journals
// nothing and changes nothing, and each column draws its own kill
// points from the shared generator.
func TestDurableRestoreDifferential(t *testing.T) {
	cfg := trace.NewConfig(61, 110, 22, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(9, 0.4, 0.3))
	market, feed := durFeed(tr)

	rng := rand.New(rand.NewSource(17))
	for _, batched := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			for _, snapEvery := range []int{7, 100000} {
				mode := "instant"
				if batched {
					mode = "batched"
				}
				snapName := "snapshots"
				if snapEvery > len(feed) {
					snapName = "log-only"
				}
				t.Run(fmt.Sprintf("%s/shards-%d/%s", mode, shards, snapName), func(t *testing.T) {
					base := []Option{WithSeed(7)}
					if shards > 1 {
						base = append(base, WithShards(shards))
					}
					if batched {
						base = append(base, WithBatching(45, Hungarian))
					}

					// The uninterrupted reference.
					ref, err := New(market, base...)
					if err != nil {
						t.Fatal(err)
					}
					applyFeed(t, ref, tr, feed)
					wantStats, err := ref.Close()
					if err != nil {
						t.Fatal(err)
					}

					cuts := []int{0, 1, len(feed) - 1}
					for i := 0; i < 3; i++ {
						cuts = append(cuts, 1+rng.Intn(len(feed)-1))
					}
					for _, cut := range cuts {
						dir := t.TempDir()
						opts := append(append([]Option(nil), base...),
							WithDurability(dir, DurSnapshotEvery(snapEvery), DurFsync("interval")))
						svc, err := New(market, opts...)
						if err != nil {
							t.Fatal(err)
						}
						applyFeed(t, svc, tr, feed[:cut])
						// Crash: the process dies here. Nothing is flushed or
						// closed; the journal is simply abandoned.
						svc = nil

						restored, err := Restore(dir)
						if err != nil {
							t.Fatalf("cut %d: Restore: %v", cut, err)
						}
						applyFeed(t, restored, tr, feed[cut:])
						gotStats, err := restored.Close()
						if err != nil {
							t.Fatalf("cut %d: Close: %v", cut, err)
						}
						// Shed/MaxPending/FeedDrops are process-local
						// operational counters; everything else — books,
						// revenue, times — must agree exactly.
						gotStats.FeedDrops, wantStats.FeedDrops = 0, 0
						if !reflect.DeepEqual(wantStats, gotStats) {
							t.Fatalf("cut %d: stats diverged\nwant %+v\ngot  %+v", cut, wantStats, gotStats)
						}
						if !reflect.DeepEqual(ref.final, restored.final) {
							t.Fatalf("cut %d: settled result diverged (served %d vs %d, revenue %.9f vs %.9f)",
								cut, ref.final.Served, restored.final.Served, ref.final.Revenue, restored.final.Revenue)
						}
					}
				})
			}
		}
	}
}

// TestDurableRestartChain: several crash-restore cycles in one day —
// each restart continuing the SAME log — still settle identically, and
// the later restarts replay from snapshots cut by earlier incarnations.
func TestDurableRestartChain(t *testing.T) {
	cfg := trace.NewConfig(62, 90, 18, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(4, 0.3, 0.25))
	market, feed := durFeed(tr)

	ref, err := New(market, WithSeed(3), WithBatching(60, Hungarian))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, ref, tr, feed)
	wantStats, err := ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Small segments and a deep snapshot retention so the rotation
	// artifacts survive pruning for the assertions below; each Restore
	// reopens with the same knobs (the log does not remember them).
	knobs := []DurOption{DurSnapshotEvery(11), DurSegmentBytes(4096), DurKeepSnapshots(16)}
	svc, err := New(market, WithSeed(3), WithBatching(60, Hungarian), WithDurability(dir, knobs...))
	if err != nil {
		t.Fatal(err)
	}
	thirds := []int{len(feed) / 3, 2 * len(feed) / 3, len(feed)}
	prev := 0
	for leg, until := range thirds {
		applyFeed(t, svc, tr, feed[prev:until])
		prev = until
		if leg < len(thirds)-1 {
			// Crash and restore; the next leg continues on the survivor.
			svc = nil
			svc, err = Restore(dir, knobs...)
			if err != nil {
				t.Fatalf("leg %d: Restore: %v", leg, err)
			}
		}
	}
	gotStats, err := svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	gotStats.FeedDrops, wantStats.FeedDrops = 0, 0
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("restart chain diverged\nwant %+v\ngot  %+v", wantStats, gotStats)
	}
	if !reflect.DeepEqual(ref.final, svc.final) {
		t.Fatal("restart chain settled a different result")
	}
	// The cadence actually cut snapshots (and rotation actually rotated).
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot file was ever cut")
	}
	if len(segs) < 2 {
		t.Fatalf("segment rotation never fired (%d segments)", len(segs))
	}
}

// TestDurableTornTailRecovery injects the crash INSIDE a record append:
// the last journal record is truncated at randomized byte offsets. A
// torn record was never acknowledged, so Restore must succeed silently
// and the restored market must equal an in-memory run of every
// operation but the torn one.
func TestDurableTornTailRecovery(t *testing.T) {
	cfg := trace.NewConfig(63, 40, 10, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)
	// Submissions only, so op k maps to journal record k+1 (after the
	// genesis record) and "drop the last op" is well defined.
	var subs []durItem
	for _, it := range feed {
		if it.isTask {
			subs = append(subs, it)
		}
	}

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		cut := 2 + rng.Intn(len(subs)-2)
		dir := t.TempDir()
		svc, err := New(market, WithSeed(5), WithDurability(dir, DurSnapshotEvery(100000)))
		if err != nil {
			t.Fatal(err)
		}
		applyFeed(t, svc, tr, subs[:cut])
		svc = nil

		// Tear the final record: truncate the single segment at a random
		// offset strictly inside the last frame.
		seg := segFileOf(t, dir)
		buf, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := wal.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		lastLen := 8 + len(rec.Records[len(rec.Records)-1].Data)
		tearAt := len(buf) - 1 - rng.Intn(lastLen-1)
		if err := os.Truncate(seg, int64(tearAt)); err != nil {
			t.Fatal(err)
		}

		restored, err := Restore(dir)
		if err != nil {
			t.Fatalf("trial %d: Restore after torn tail: %v", trial, err)
		}
		gotStats, err := restored.Close()
		if err != nil {
			t.Fatal(err)
		}

		ref, err := New(market, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		applyFeed(t, ref, tr, subs[:cut-1])
		wantStats, err := ref.Close()
		if err != nil {
			t.Fatal(err)
		}
		gotStats.FeedDrops, wantStats.FeedDrops = 0, 0
		if !reflect.DeepEqual(wantStats, gotStats) {
			t.Fatalf("trial %d (tear %d/%d): torn-tail restore diverged\nwant %+v\ngot  %+v",
				trial, tearAt, len(buf), wantStats, gotStats)
		}
	}
}

// TestDurableCorruptTailTyped: flipped bits in the final record surface
// as wal.ErrCorruptTail from Restore — never a panic, never silent —
// and an explicit wal.Repair unblocks recovery minus that record.
func TestDurableCorruptTailTyped(t *testing.T) {
	cfg := trace.NewConfig(64, 30, 8, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)
	var subs []durItem
	for _, it := range feed {
		if it.isTask {
			subs = append(subs, it)
		}
	}
	dir := t.TempDir()
	svc, err := New(market, WithSeed(5), WithDurability(dir, DurSnapshotEvery(100000)))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, svc, tr, subs)
	svc = nil

	seg := segFileOf(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-3] ^= 0x20
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Restore(dir); !errors.Is(err, wal.ErrCorruptTail) {
		t.Fatalf("Restore over corrupt tail = %v, want wal.ErrCorruptTail", err)
	}
	if _, err := wal.Repair(dir); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	restored, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore after Repair: %v", err)
	}
	stats, err := restored.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tasks != len(subs)-1 {
		t.Fatalf("repaired restore holds %d tasks, want %d", stats.Tasks, len(subs)-1)
	}
}

// segFileOf returns the single segment file of a one-segment log.
func segFileOf(t testing.TB, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	return segs[0]
}

// TestRestoreAfterClose: a gracefully closed day restores as a settled,
// read-only service with the same final stats.
func TestRestoreAfterClose(t *testing.T) {
	cfg := trace.NewConfig(65, 40, 10, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)
	dir := t.TempDir()
	svc, err := New(market, WithSeed(2), WithBatching(30, Hungarian), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, svc, tr, feed)
	want, err := svc.Close()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore of settled day: %v", err)
	}
	got, err := restored.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got.FeedDrops, want.FeedDrops = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("settled restore stats diverged\nwant %+v\ngot  %+v", want, got)
	}
	// Mutations are over, typed both ways.
	_, err = restored.SubmitTask(context.Background(), pubTask(0, tr.Tasks[0]))
	if !errors.Is(err, ErrClosed) || !errors.Is(err, ErrFinished) {
		t.Fatalf("mutation on settled restore = %v, want ErrClosed and ErrFinished", err)
	}
}

// TestServiceErrFinishedTyped is the satellite contract: every mutator
// on a closed service returns an error matching BOTH ErrClosed and
// ErrFinished, so callers can ask "is this market's day settled?"
// without touching internal state.
func TestServiceErrFinishedTyped(t *testing.T) {
	cfg := trace.NewConfig(66, 10, 4, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, _ := durFeed(tr)
	svc, err := New(market, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrFinished) {
			t.Fatalf("%s: %v does not match ErrFinished", op, err)
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: %v does not match ErrClosed", op, err)
		}
	}
	_, err = svc.SubmitTask(ctx, pubTask(0, tr.Tasks[0]))
	check("SubmitTask", err)
	_, err = svc.CancelTask(ctx, 0, 10)
	check("CancelTask", err)
	check("AddDriver", svc.AddDriver(ctx, Driver{ID: 99, End: 100}))
	check("RetireDriver", svc.RetireDriver(ctx, 0, 10))
	// Snapshot on a settled service answers with the final stats rather
	// than an error — the day's books remain queryable.
	if _, err := svc.Snapshot(ctx); err != nil {
		t.Fatalf("Snapshot after Close: %v", err)
	}
}

// TestWithDurabilityValidation: the option and its knobs reject
// unusable values, and New refuses a directory already holding a log.
func TestWithDurabilityValidation(t *testing.T) {
	if _, err := New(Market{}, WithDurability("")); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("empty dir = %v", err)
	}
	for _, opt := range []DurOption{
		DurFsync("sometimes"), DurSyncInterval(0), DurSegmentBytes(0),
		DurSnapshotEvery(0), DurKeepSnapshots(0),
	} {
		if _, err := New(Market{}, WithDurability(t.TempDir(), opt)); err == nil {
			t.Fatal("bad durability knob accepted")
		}
	}
	dir := t.TempDir()
	svc, err := New(Market{}, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Market{}, WithDurability(dir)); !errors.Is(err, wal.ErrExists) {
		t.Fatalf("New over existing log = %v, want wal.ErrExists", err)
	}
	// But Restore over it works.
	restored, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := restored.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreEmptyDirTyped: restoring from nothing is typed, not a
// panic or a zero service.
func TestRestoreEmptyDirTyped(t *testing.T) {
	if _, err := Restore(t.TempDir()); !errors.Is(err, wal.ErrNotFound) {
		t.Fatalf("Restore(empty) = %v, want wal.ErrNotFound", err)
	}
}

// TestHaltResumesDay is the rolling-restart contract: Halt stops a
// durable market crash-consistently — no finish record, books NOT
// settled — so Restore resumes the day mid-flight and the completed run
// settles bit-identical to an uninterrupted one. Contrast with Close,
// whose finish record settles the day for good.
func TestHaltResumesDay(t *testing.T) {
	cfg := trace.NewConfig(66, 60, 14, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)

	ref, err := New(market, WithSeed(5), WithBatching(40, Hungarian))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, ref, tr, feed)
	want, err := ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	knobs := []DurOption{DurSnapshotEvery(13), DurFsync("interval")}
	svc, err := New(market, WithSeed(5), WithBatching(40, Hungarian), WithDurability(dir, knobs...))
	if err != nil {
		t.Fatal(err)
	}
	half := len(feed) / 2
	applyFeed(t, svc, tr, feed[:half])

	haltStats, err := svc.Halt()
	if err != nil {
		t.Fatal(err)
	}
	if haltStats.Tasks == 0 {
		t.Fatal("halt stats empty despite half a day of orders")
	}
	// Halt is idempotent and freezes the stats it reported.
	again, err := svc.Halt()
	if err != nil || !reflect.DeepEqual(haltStats, again) {
		t.Fatalf("second Halt = (%+v, %v), want the frozen stats", again, err)
	}
	// A halted service is closed to mutations, typed both ways.
	if _, err := svc.SubmitTask(context.Background(), pubTask(0, tr.Tasks[0])); !errors.Is(err, ErrClosed) || !errors.Is(err, ErrFinished) {
		t.Fatalf("mutation after Halt = %v, want ErrClosed and ErrFinished", err)
	}
	// Close after Halt is a no-op returning the same frozen stats: the
	// log is already closed and must NOT gain a finish record.
	cstats, err := svc.Close()
	if err != nil || !reflect.DeepEqual(haltStats, cstats) {
		t.Fatalf("Close after Halt = (%+v, %v), want the frozen stats", cstats, err)
	}

	// The day resumes where it stopped — NOT settled.
	restored, err := Restore(dir, knobs...)
	if err != nil {
		t.Fatalf("Restore after Halt: %v", err)
	}
	applyFeed(t, restored, tr, feed[half:])
	got, err := restored.Close()
	if err != nil {
		t.Fatal(err)
	}
	got.FeedDrops, want.FeedDrops = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("halt/restore day diverged\nwant %+v\ngot  %+v", want, got)
	}
	if !reflect.DeepEqual(ref.final, restored.final) {
		t.Fatal("halt/restore settled a different result")
	}
}

// TestHaltWithoutJournal: Halt on a purely in-memory service is just a
// non-settling stop — no log to sync, mutations refused afterwards.
func TestHaltWithoutJournal(t *testing.T) {
	cfg := trace.NewConfig(67, 10, 6, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)
	svc, err := New(market, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, svc, tr, feed[:len(feed)/2])
	stats, err := svc.Halt()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTask(context.Background(), pubTask(0, tr.Tasks[0])); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutation after Halt = %v, want ErrClosed", err)
	}
	if snap, err := svc.Snapshot(context.Background()); err != nil || !reflect.DeepEqual(stats, snap) {
		t.Fatalf("Snapshot after Halt = (%+v, %v), want the frozen stats", snap, err)
	}
}
