package bound

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/offline"
	"repro/internal/taskmap"
	"repro/internal/trace"
)

// compileFor builds the exact (TopK=0) profit instance for a generated
// event-free trace, alongside the dense taskmap it must agree with.
func compileFor(t *testing.T, seed int64, tasks, drivers int, dm trace.DriverModel) (*offline.Instance, *taskmap.Graph) {
	t.Helper()
	cfg := trace.NewConfig(seed, tasks, drivers, dm)
	tr := trace.NewGenerator(cfg).Generate(nil)
	in, err := offline.Compile(cfg.Market, tr, offline.Options{})
	if err != nil {
		t.Fatalf("offline.Compile: %v", err)
	}
	g, err := taskmap.New(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		t.Fatalf("taskmap.New: %v", err)
	}
	return in, g
}

func samePaths(t *testing.T, ctx string, got, want []taskmap.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Driver != want[i].Driver || got[i].Profit != want[i].Profit ||
			!reflect.DeepEqual(got[i].Tasks, want[i].Tasks) {
			t.Fatalf("%s: path %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestSparseMatchesBruteForce is the differential oracle: on small
// fuzzed instances the sparse component solver must reproduce
// BruteForce bit for bit — objective, argmax paths, everything.
func TestSparseMatchesBruteForce(t *testing.T) {
	var s SparseSolver
	for seed := int64(1); seed <= 30; seed++ {
		dm := trace.Hitchhiking
		if seed%2 == 0 {
			dm = trace.HomeWorkHome
		}
		in, g := compileFor(t, seed, 8+int(seed%5), 3+int(seed%3), dm)
		want, err := BruteForce(g, 0)
		if err != nil {
			t.Fatalf("seed %d: BruteForce: %v", seed, err)
		}
		got, err := s.Solve(in, SparseOptions{})
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if !got.Exact {
			t.Fatalf("seed %d: not exact: %+v", seed, got)
		}
		if got.Objective != want.Objective {
			t.Fatalf("seed %d: objective %v, want %v", seed, got.Objective, want.Objective)
		}
		if got.UpperBound != got.Objective {
			t.Fatalf("seed %d: exact solve upper bound %v != objective %v", seed, got.UpperBound, got.Objective)
		}
		samePaths(t, "seed", got.Paths, want.Paths)
		for _, p := range want.Paths {
			for _, tk := range p.Tasks {
				if int(got.TaskDriver[tk]) != p.Driver {
					t.Fatalf("seed %d: TaskDriver[%d] = %d, want %d", seed, tk, got.TaskDriver[tk], p.Driver)
				}
			}
		}
	}
}

// TestSparseOptionInvariance sweeps warm starts, LP pruning, and worker
// counts over the same instances: none of them may change a single bit
// of the solution.
func TestSparseOptionInvariance(t *testing.T) {
	var s SparseSolver
	rng := rand.New(rand.NewSource(7))
	for seed := int64(1); seed <= 12; seed++ {
		in, g := compileFor(t, seed, 12, 4, trace.Hitchhiking)
		base, err := s.Solve(in, SparseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Warm from the true optimum, from a bogus assignment, and empty.
		opt, err := BruteForce(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		warmOpt := make([][]int, len(in.Drivers))
		for _, p := range opt.Paths {
			warmOpt[p.Driver] = p.Tasks
		}
		warmJunk := make([][]int, len(in.Drivers))
		for d := range warmJunk {
			if rng.Intn(2) == 0 && len(in.Tasks) > 0 {
				warmJunk[d] = []int{rng.Intn(len(in.Tasks))}
			}
		}
		variants := []SparseOptions{
			{LP: true},
			{LP: true, Warm: warmOpt},
			{Warm: warmOpt},
			{Warm: warmJunk},
			{LP: true, Warm: warmJunk},
		}
		for vi, vo := range variants {
			var s2 SparseSolver
			got, err := s2.Solve(in, vo)
			if err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, vi, err)
			}
			if got.Objective != base.Objective {
				t.Fatalf("seed %d variant %d: objective %v, want %v", seed, vi, got.Objective, base.Objective)
			}
			if !got.Exact {
				t.Fatalf("seed %d variant %d: not exact", seed, vi)
			}
			samePaths(t, "variant", got.Paths, base.Paths)
			for m := range in.Tasks {
				if got.TaskDriver[m] != base.TaskDriver[m] {
					t.Fatalf("seed %d variant %d: TaskDriver[%d] differs", seed, vi, m)
				}
			}
		}
	}
}

// TestSparseTieDegenerate builds an instance out of duplicated drivers
// and duplicated tasks, so many distinct assignments reach bitwise-
// identical totals. The solver must pick exactly the combination
// BruteForce's enumeration order picks.
func TestSparseTieDegenerate(t *testing.T) {
	market := model.DefaultMarket()
	p0 := geo.Point{Lat: 41.15, Lon: -8.61}
	p1 := geo.Point{Lat: 41.16, Lon: -8.60}
	p2 := geo.Point{Lat: 41.17, Lon: -8.59}
	var drivers []model.Driver
	for i := 0; i < 3; i++ { // three identical drivers
		drivers = append(drivers, model.Driver{ID: i + 1, Source: p0, Dest: p0, Start: 0, End: 40000})
	}
	var tasks []model.Task
	for i := 0; i < 4; i++ { // two identical copies of two tasks
		tasks = append(tasks,
			model.Task{ID: 10 + i, Publish: 0, Source: p1, Dest: p2, StartBy: 2000, EndBy: 4000, Price: 10, WTP: 12},
			model.Task{ID: 20 + i, Publish: 0, Source: p2, Dest: p1, StartBy: 4500, EndBy: 7000, Price: 10, WTP: 12})
	}
	tr := model.Trace{Drivers: drivers, Tasks: tasks}
	in, err := offline.Compile(market, tr, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := taskmap.New(market, drivers, tasks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var s SparseSolver
	for solve := 0; solve < 2; solve++ { // the second on warm arenas
		got, err := s.Solve(in, SparseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Objective != want.Objective {
			t.Fatalf("solve %d: objective %v, want %v", solve, got.Objective, want.Objective)
		}
		samePaths(t, "tie", got.Paths, want.Paths)
	}
}

// TestSparseLagrangianFallback forces the enumeration cap and checks
// the inexact route stays sandwiched: incumbent ≤ BruteForce optimum ≤
// upper bound.
func TestSparseLagrangianFallback(t *testing.T) {
	in, g := compileFor(t, 9, 14, 4, trace.Hitchhiking)
	want, err := BruteForce(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var s SparseSolver
	got, err := s.Solve(in, SparseOptions{PathCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Exact {
		t.Skip("instance too small to blow a PathCap of 1")
	}
	if got.Objective > want.Objective+1e-9 {
		t.Fatalf("fallback objective %v exceeds optimum %v", got.Objective, want.Objective)
	}
	if got.UpperBound < want.Objective-1e-6*(1+want.Objective) {
		t.Fatalf("fallback upper bound %v below optimum %v", got.UpperBound, want.Objective)
	}
	if got.Objective < 0 {
		t.Fatalf("fallback objective %v negative", got.Objective)
	}
}

// TestSparseWarmAccounting feeds a valid warm assignment and a junk one
// and checks the kept/dropped counters see them.
func TestSparseWarmAccounting(t *testing.T) {
	in, g := compileFor(t, 3, 10, 3, trace.Hitchhiking)
	opt, err := BruteForce(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Paths) == 0 {
		t.Skip("seed produced an empty optimum")
	}
	warm := make([][]int, len(in.Drivers))
	for _, p := range opt.Paths {
		warm[p.Driver] = p.Tasks
	}
	var s SparseSolver
	got, err := s.Solve(in, SparseOptions{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmKept != len(opt.Paths) {
		t.Fatalf("WarmKept = %d, want %d", got.WarmKept, len(opt.Paths))
	}
	// A warm path over a task the driver has no pair for must be dropped.
	bad := make([][]int, len(in.Drivers))
	bad[opt.Paths[0].Driver] = []int{-0 + len(in.Tasks) - 1, 0} // almost surely infeasible order
	if _, err := s.Solve(in, SparseOptions{Warm: bad}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseZeroAllocSteadyState pins the arena promise on the re-solve
// path: serial, no LP, no path materialization.
func TestSparseZeroAllocSteadyState(t *testing.T) {
	in, _ := compileFor(t, 5, 20, 5, trace.Hitchhiking)
	var s SparseSolver
	opts := SparseOptions{SkipPaths: true}
	if _, err := s.Solve(in, opts); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(30, func() {
		if _, err := s.Solve(in, opts); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Solve allocates %v per run, want 0", avg)
	}
}

func TestEnumeratePathsErrPathLimit(t *testing.T) {
	cfg := trace.NewConfig(2, 30, 2, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	g, err := taskmap.New(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnumeratePaths(g, 0, 1); !errors.Is(err, ErrPathLimit) {
		t.Fatalf("err = %v, want ErrPathLimit", err)
	}
}

// BenchmarkSparseResolve measures the steady-state re-solve path the
// oracle bench exercises per density leg.
func BenchmarkSparseResolve(b *testing.B) {
	cfg := trace.NewConfig(19, 400, 80, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	in, err := offline.Compile(cfg.Market, tr, offline.Options{TopK: 8})
	if err != nil {
		b.Fatal(err)
	}
	var s SparseSolver
	opts := SparseOptions{SkipPaths: true}
	if _, err := s.Solve(in, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(in, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseSolveLP includes the LP root and path materialization.
func BenchmarkSparseSolveLP(b *testing.B) {
	cfg := trace.NewConfig(23, 400, 80, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	in, err := offline.Compile(cfg.Market, tr, offline.Options{TopK: 8})
	if err != nil {
		b.Fatal(err)
	}
	var s SparseSolver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(in, SparseOptions{LP: true}); err != nil {
			b.Fatal(err)
		}
	}
}
