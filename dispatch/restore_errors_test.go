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

	tr := trace.NewGenerator(trace.NewConfig(64, 30, 8, trace.Hitchhiking)).Generate(nil)
	// damaged journals a few orders, halts, flips one bit of the log's
	// only segment — in the byte at(n) picks, n being the segment's
	// length — and returns the directory.
	damaged := func(at func(n int) int) string {
		t.Helper()
		dir := t.TempDir()
		svc, err := dispatch.New(fleet(tr), dispatch.WithSeed(5), dispatch.WithDurability(dir))
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range tr.Tasks[:5] {
			if _, err := svc.SubmitTask(context.Background(), order(i, task)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.Halt(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		buf, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		buf[at(len(buf))] ^= 0x20
		if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, tc := range []struct {
		name      string
		at        func(n int) int
		want, not error
	}{
		{"final record", func(n int) int { return n - 3 }, dispatch.ErrLogCorruptTail, dispatch.ErrLogCorrupt},
		{"segment header", func(int) int { return 0 }, dispatch.ErrLogCorrupt, dispatch.ErrLogCorruptTail},
	} {
		_, err := dispatch.Restore(damaged(tc.at))
		if !errors.Is(err, tc.want) || errors.Is(err, tc.not) {
			t.Errorf("%s damaged: Restore = %v, want %v and not %v", tc.name, err, tc.want, tc.not)
		}
	}
}
