package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestDriverTable: the table answers every ID a map would — inside the
// dense range [0, n), below it, beyond it, at the ends of int — and an
// ID it was never given is unknown on either side.
func TestDriverTable(t *testing.T) {
	tab := newDriverTable(5)
	ids := []int{0, 4, -1, 5, math.MaxInt, math.MinInt, 3, 1 << 40}
	for idx, id := range ids {
		tab.put(id, idx)
	}
	for idx, id := range ids {
		if got, ok := tab.get(id); !ok || got != idx {
			t.Fatalf("get(%d) = %d, %v; want %d, true", id, got, ok, idx)
		}
	}
	for _, id := range []int{1, 2, 6, -2, math.MaxInt - 1, math.MinInt + 1} {
		if got, ok := tab.get(id); ok {
			t.Fatalf("get(%d) = %d for an ID never put", id, got)
		}
	}
	if len(tab.other) != 5 {
		t.Fatalf("%d IDs in the map, want the 5 outside [0, 5)", len(tab.other))
	}
}

// sparseMarket is overloadMarket's four drivers under the given IDs,
// which the tests spread over both halves of the table: inside [0, 4)
// and outside it.
func sparseMarket(ids ...int) Market {
	m := overloadMarket()
	for i, id := range ids {
		m.Drivers[i].ID = id
	}
	return m
}

// TestNewDuplicateDriverEitherHalf: a duplicate is found whichever half
// of the table its ID falls in, and New reports the first ID to repeat,
// in the words the map gave.
func TestNewDuplicateDriverEitherHalf(t *testing.T) {
	for _, tc := range []struct {
		ids []int
		dup int
	}{
		{[]int{1, -5, 3, 1}, 1},
		{[]int{-5, 0, 2, -5}, -5},
		{[]int{math.MaxInt, 1, math.MaxInt, 1}, math.MaxInt},
		{[]int{7, 3, 3, 7}, 3},
	} {
		_, err := New(sparseMarket(tc.ids...))
		want := fmt.Errorf("%w: %d", ErrDuplicateDriver, tc.dup)
		if !errors.Is(err, ErrDuplicateDriver) || err.Error() != want.Error() {
			t.Fatalf("New over IDs %v: %v, want %v", tc.ids, err, want)
		}
	}
}

// TestDriverTableThroughService drives a fleet with IDs in both halves
// through joins, retirements and re-entries, halts it after each step in
// turn, restores it from its log (the genesis record or its last
// snapshot) and carries on: the restored market answers every step as
// one that never stopped, and each refusal is the one the map gave.
func TestDriverTableThroughService(t *testing.T) {
	ctx := context.Background()
	fleet := []int{1000, -4, 2, math.MaxInt}
	steps := []func(s *Service) string{
		func(s *Service) string { return submit(ctx, s, 0, 0) },
		func(s *Service) string { return submit(ctx, s, 1, 1) },
		func(s *Service) string { return join(ctx, s, 1) },  // new, inside [0, 4)
		func(s *Service) string { return join(ctx, s, 77) }, // new, outside it
		func(s *Service) string { return retire(ctx, s, -4, 5) },
		func(s *Service) string { return retire(ctx, s, 2, 6) },
		func(s *Service) string { return submit(ctx, s, 2, 10) },
		func(s *Service) string { return join(ctx, s, -4) }, // a retired re-entry, outside
		func(s *Service) string { return submit(ctx, s, 3, 11) },
		func(s *Service) string { return join(ctx, s, 2) }, // a retired re-entry, inside
		func(s *Service) string { return join(ctx, s, 1000) },
		func(s *Service) string { return join(ctx, s, 1) },
		func(s *Service) string { return retire(ctx, s, 3, 12) },
		func(s *Service) string { return retire(ctx, s, -5, 12) },
		func(s *Service) string { return retire(ctx, s, math.MinInt, 12) },
		func(s *Service) string { return submit(ctx, s, 4, 13) },
		func(s *Service) string { return retire(ctx, s, 77, 14) },
		func(s *Service) string { return submit(ctx, s, 5, 15) },
	}
	run := func(s *Service, from, to int) []string {
		var out []string
		for _, step := range steps[from:to] {
			out = append(out, step(s))
		}
		return out
	}
	straight, err := New(sparseMarket(fleet...))
	if err != nil {
		t.Fatal(err)
	}
	want := run(straight, 0, len(steps))
	for _, w := range []string{"unknown driver id: 3", "unknown driver id: -5", "duplicate driver id: 1000", "duplicate driver id: 1"} {
		if !slices.ContainsFunc(want, func(s string) bool { return strings.HasSuffix(s, w) }) {
			t.Fatalf("no step answered %q: %q", w, want)
		}
	}

	for cut := 1; cut < len(steps); cut++ {
		dir := filepath.Join(t.TempDir(), "wal")
		first, err := New(sparseMarket(fleet...), WithDurability(dir, DurFsync("off"), DurSnapshotEvery(2)))
		if err != nil {
			t.Fatal(err)
		}
		got := run(first, 0, cut)
		if _, err := first.Halt(); err != nil {
			t.Fatal(err)
		}
		second, err := Restore(dir, DurFsync("off"))
		if err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		// Rebuilt from the genesis record or from a snapshot, the table is
		// dense over the fleet the market reopened with.
		if n := len(second.drivers.dense); n < len(fleet) {
			t.Fatalf("cut %d: the restored table is dense over %d IDs, want at least the opening fleet's %d", cut, n, len(fleet))
		}
		got = append(got, run(second, cut, len(steps))...)
		if _, err := second.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("halted after step %d and restored:\n%q\nwant\n%q", cut, got, want)
		}
	}
}

func submit(ctx context.Context, s *Service, id int, at float64) string {
	a, err := s.SubmitTask(ctx, overloadTask(id, at))
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("task %d -> %d", a.TaskID, a.DriverID)
}

func join(ctx context.Context, s *Service, id int) string {
	d := overloadMarket().Drivers[0]
	d.ID = id
	if err := s.AddDriver(ctx, d); err != nil {
		return err.Error()
	}
	return fmt.Sprintf("joined %d", id)
}

func retire(ctx context.Context, s *Service, id int, at float64) string {
	if err := s.RetireDriver(ctx, id, at); err != nil {
		return err.Error()
	}
	return fmt.Sprintf("retired %d", id)
}

// TestBootBytesPerDriver bounds what New allocates to open a 50 000-driver
// market numbered from zero, generated as serve generates it: the fleet
// in the engine's form, once, the driver table, the run's state and the
// bound index. 606.3 bytes a driver were measured; the bound allows 5 %
// over that. It was 682.7 while New hashed the fleet's IDs into a map and
// the engine kept a copy of New's own fleet slice (64 bytes a driver).
func TestBootBytesPerDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("50 000-driver fleet")
	}
	const n = 50_000
	gen := trace.NewGenerator(trace.NewConfig(27, 1, n, trace.Hitchhiking)).GenerateDrivers()
	m := Market{Drivers: make([]Driver, n)}
	for i, f := range gen {
		m.Drivers[i] = Driver{ID: i, Source: Point(f.Source), Dest: Point(f.Dest),
			Start: f.Start, End: f.End, SpeedKmh: f.SpeedKmh}
	}
	perDriver := math.Inf(1)
	for range 3 { // the least of three, past any stray allocation alongside
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		svc, err := New(m, WithSeed(1), WithStrictTimes())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perDriver = min(perDriver, float64(after.TotalAlloc-before.TotalAlloc)/n)
		svc.Close()
	}
	t.Logf("%.1f bytes allocated a driver", perDriver)
	if perDriver > 606.3*1.05 {
		t.Fatalf("New allocated %.1f bytes a driver, want at most %.1f", perDriver, 606.3*1.05)
	}
}
