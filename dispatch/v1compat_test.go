package dispatch

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The day testdata/wal_v1 was cut from (see its README): a churned,
// batched market with one mid-day AddDriver, journaled by the last
// build that wrote version-1 (JSON) logs and halted after v1Cut
// operations with orders still waiting in the open window.
const (
	v1JoinAfter = 20 // the extra driver is announced after this many feed items
	v1Cut       = 96 // feed items applied before the fixture's Halt
)

func v1Options() []Option {
	return []Option{WithSeed(9), WithBatching(120, Hungarian)}
}

func v1Day() (model.Trace, Market, []durItem, Driver) {
	cfg := trace.NewConfig(68, 110, 20, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(5, 0.35, 0.3))
	market, feed := durFeed(tr)
	extra := pubDriver(9001, tr.Drivers[0], 0)
	return tr, market, feed, extra
}

// applyV1Day applies feed[from:to], announcing the extra driver right
// after item v1JoinAfter-1.
func applyV1Day(t *testing.T, svc *Service, tr model.Trace, feed []durItem, extra Driver, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		applyFeed(t, svc, tr, feed[i:i+1])
		if i == v1JoinAfter-1 {
			if err := svc.AddDriver(context.Background(), extra); err != nil {
				t.Fatalf("AddDriver(%d): %v", extra.ID, err)
			}
		}
	}
}

// copyV1Fixture copies the checked-in log into a scratch directory:
// Restore reopens a log for appending, and the fixture must not change.
func copyV1Fixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range walFiles(t, filepath.Join("testdata", "wal_v1")) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRestoreV1Fixture: a log written by the last version-1 build — a
// JSON snapshot and a JSON record suffix, halted mid-window — restores,
// takes the rest of its day as version-2 records, and settles the books
// of a service that was never interrupted. The second leg halts again
// without a snapshot, so its Restore replays the v1 snapshot, the v1
// suffix and the v2 appends behind them in one pass.
func TestRestoreV1Fixture(t *testing.T) {
	tr, market, feed, extra := v1Day()
	ref, err := New(market, v1Options()...)
	if err != nil {
		t.Fatal(err)
	}
	applyV1Day(t, ref, tr, feed, extra, 0, len(feed))
	want, err := ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want.Served == 0 || want.Cancelled == 0 {
		t.Fatalf("degenerate reference day: %+v", want)
	}

	for _, legs := range [][]int{{len(feed)}, {v1Cut + 9, len(feed)}} {
		dir := copyV1Fixture(t)
		rec, err := wal.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Snapshot == nil || rec.Snapshot[0] != '{' || len(rec.Records) == 0 || rec.Records[0].Data[0] >= rec2Base {
			t.Fatalf("fixture is not a version-1 snapshot with a version-1 suffix (%d records)", len(rec.Records))
		}
		knobs := []DurOption{DurSnapshotEvery(100000), DurFsync("off")}
		svc, err := Restore(dir, knobs...)
		if err != nil {
			t.Fatalf("Restore of the version-1 fixture: %v", err)
		}
		mid, err := svc.Snapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if mid.Pending == 0 {
			t.Fatal("fixture was not halted mid-window")
		}
		from := v1Cut
		for i, until := range legs {
			applyV1Day(t, svc, tr, feed, extra, from, until)
			from = until
			if i < len(legs)-1 {
				if _, err := svc.Halt(); err != nil {
					t.Fatal(err)
				}
				if svc, err = Restore(dir, knobs...); err != nil {
					t.Fatalf("Restore of a version-1 prefix with version-2 appends: %v", err)
				}
			}
		}
		got, err := svc.Close()
		if err != nil {
			t.Fatal(err)
		}
		got.FeedDrops, want.FeedDrops = 0, 0
		if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(ref.final, svc.final) {
			t.Fatalf("legs %v: books diverged\nwant %+v\ngot  %+v", legs, want, got)
		}
	}
}
