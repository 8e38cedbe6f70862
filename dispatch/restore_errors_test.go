package dispatch_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/dispatch"
	"repro/internal/trace"
)

// TestRestoreErrorsMatchOutsideTheModule: the three ways Restore
// refuses a log are dispatch's own error values, so a caller that
// imports only this package tells them apart with errors.Is — a
// missing log (start a fresh day), a corrupt final record and a log
// corrupt before its tail.
func TestRestoreErrorsMatchOutsideTheModule(t *testing.T) {
	if _, err := dispatch.Restore(t.TempDir()); !errors.Is(err, dispatch.ErrLogNotFound) {
		t.Fatalf("Restore(empty dir) = %v, want ErrLogNotFound", err)
	}

	for _, tc := range []struct {
		name      string
		at        func(n int) int
		want, not error
	}{
		{"final record", func(n int) int { return n - 3 }, dispatch.ErrLogCorruptTail, dispatch.ErrLogCorrupt},
		{"segment header", func(int) int { return 0 }, dispatch.ErrLogCorrupt, dispatch.ErrLogCorruptTail},
	} {
		_, err := dispatch.Restore(damaged(t, tc.at))
		if !errors.Is(err, tc.want) || errors.Is(err, tc.not) {
			t.Errorf("%s damaged: Restore = %v, want %v and not %v", tc.name, err, tc.want, tc.not)
		}
	}
}

// TestRepairLogDropsTheDamagedRecord: after RepairLog, a log whose final
// record failed its checksum restores to the books of the same run
// without that record, and a log damaged before its tail is refused and
// left untouched.
func TestRepairLogDropsTheDamagedRecord(t *testing.T) {
	dir := damaged(t, func(n int) int { return n - 3 })
	if _, err := dispatch.Restore(dir); !errors.Is(err, dispatch.ErrLogCorruptTail) {
		t.Fatalf("Restore before the repair = %v, want ErrLogCorruptTail", err)
	}
	if n, err := dispatch.RepairLog(dir); err != nil || n <= 0 {
		t.Fatalf("RepairLog = %d, %v; want bytes dropped", n, err)
	}
	svc, err := dispatch.Restore(dir)
	if err != nil {
		t.Fatalf("Restore after the repair: %v", err)
	}
	got, err := svc.Halt()
	if err != nil {
		t.Fatal(err)
	}
	if want := journal(t, t.TempDir(), 4); got != want {
		t.Fatalf("repaired log restores to %+v, want the four-order run's %+v", got, want)
	}
	if n, err := dispatch.RepairLog(dir); n != 0 || err != nil {
		t.Fatalf("RepairLog on a sound log = %d, %v; want 0, nil", n, err)
	}

	bad := damaged(t, func(int) int { return 0 })
	_, before := segment(t, bad)
	if _, err := dispatch.RepairLog(bad); !errors.Is(err, dispatch.ErrLogCorrupt) {
		t.Fatalf("RepairLog on a damaged header = %v, want ErrLogCorrupt", err)
	}
	if _, after := segment(t, bad); string(after) != string(before) {
		t.Fatal("RepairLog changed a log it refused")
	}
}

var restoreDay = trace.NewGenerator(trace.NewConfig(64, 30, 8, trace.Hitchhiking)).Generate(nil)

// journal runs the first n orders of restoreDay on a service journaled
// into dir, halts it and returns its books.
func journal(t *testing.T, dir string, n int) dispatch.Stats {
	t.Helper()
	svc, err := dispatch.New(fleet(restoreDay), dispatch.WithSeed(5), dispatch.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range restoreDay.Tasks[:n] {
		if _, err := svc.SubmitTask(context.Background(), order(i, task)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := svc.Halt()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// segment returns the path and the bytes of the only segment of the log
// in dir.
func segment(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return segs[0], buf
}

// damaged journals five orders, halts, flips one bit of the log's only
// segment — in the byte at(n) picks, n being the segment's length — and
// returns the directory.
func damaged(t *testing.T, at func(n int) int) string {
	t.Helper()
	dir := t.TempDir()
	journal(t, dir, 5)
	path, buf := segment(t, dir)
	buf[at(len(buf))] ^= 0x20
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}
