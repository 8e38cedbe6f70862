package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// settleTrace replays a whole trace through a fresh service and closes
// it, returning the settled result.
func settleTrace(t *testing.T, tr model.Trace, opts ...Option) *sim.Result {
	t.Helper()
	svc := replayTrace(t, tr, opts...)
	if _, err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return svc.final
}

// TestWithRoadNetworkChangesOutcome: the street-graph metric must
// actually reach the dispatch path — a day replayed under
// WithRoadNetwork settles differently from the crow-fly day — and must
// be deterministic: two services built from the same RoadNetwork config
// settle bit-identically.
func TestWithRoadNetworkChangesOutcome(t *testing.T) {
	cfg := trace.NewConfig(71, 90, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)

	crow := settleTrace(t, tr, WithSeed(3))
	netA := settleTrace(t, tr, WithSeed(3), WithRoadNetwork(RoadNetwork{}))
	netB := settleTrace(t, tr, WithSeed(3), WithRoadNetwork(RoadNetwork{}))

	if crow.Served == 0 || netA.Served == 0 {
		t.Fatalf("degenerate day: crow served %d, network served %d", crow.Served, netA.Served)
	}
	if reflect.DeepEqual(crow, netA) {
		t.Fatal("WithRoadNetwork settled bit-identical to crow-fly; the metric is not wired into dispatch")
	}
	if !reflect.DeepEqual(netA, netB) {
		t.Fatal("two services with the same RoadNetwork config settled differently")
	}
}

// TestWithRoadNetworkShardWorkerIdentity pins the two deprecated
// options under the network metric: batched days are bit-identical
// whatever count WithShards and WithMatchWorkers are handed (the test
// and its columns are named from before the zone partition and the
// window worker pool were deleted, and go with the options).
func TestWithRoadNetworkShardWorkerIdentity(t *testing.T) {
	cfg := trace.NewConfig(73, 110, 60, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(5, 0.3, 0.25))

	rn := RoadNetwork{Rows: 12, Cols: 14}
	var want *sim.Result
	for _, sw := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {4, 1}, {1, 4}} {
		shards, workers := sw[0], sw[1]
		t.Run(fmt.Sprintf("shards-%d-workers-%d", shards, workers), func(t *testing.T) {
			opts := []Option{WithSeed(5), WithBatching(45, Hungarian), WithRoadNetwork(rn)}
			if shards > 1 {
				opts = append(opts, WithShards(shards))
			}
			if workers > 1 {
				opts = append(opts, WithMatchWorkers(workers))
			}
			got := settleTrace(t, tr, opts...)
			if want == nil {
				want = got
				if got.Served == 0 {
					t.Fatal("degenerate baseline: nothing served")
				}
				return
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("network-metric day diverged at shards=%d workers=%d: served %d vs %d, revenue %.9f vs %.9f — this is a bug",
					shards, workers, got.Served, want.Served, got.Revenue, want.Revenue)
			}
		})
	}
}

// TestWithRoadNetworkAlgoIdentity: the routing kernel must be invisible
// in the books. Full trace replays — instant and batched, under churn —
// settle bit-identically whether
// the router runs contraction hierarchies or landmark A*, because both
// kernels return bitwise-equal distances (and the CH one-to-many batch
// path is bitwise-equal to looped lookups).
func TestWithRoadNetworkAlgoIdentity(t *testing.T) {
	cfg := trace.NewConfig(89, 100, 50, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(7, 0.3, 0.25))

	for _, batched := range []bool{false, true} {
		var want *sim.Result
		for _, algo := range []string{"ch", "alt"} {
			name := fmt.Sprintf("batched-%v-%s", batched, algo)
			opts := []Option{WithSeed(5), WithRoadNetwork(RoadNetwork{Rows: 12, Cols: 14, Algo: algo})}
			if batched {
				opts = append(opts, WithBatching(45, Hungarian))
			}
			got := settleTrace(t, tr, opts...)
			if want == nil {
				want = got
				if got.Served == 0 {
					t.Fatalf("%s: degenerate baseline: nothing served", name)
				}
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s diverged from the ch baseline: served %d vs %d, revenue %.9f vs %.9f — this is a bug",
					name, got.Served, want.Served, got.Revenue, want.Revenue)
			}
		}
	}
}

// TestDurableRoadNetworkAlgoRestore: the Algo choice is journaled and
// survives a crash, and an ALT day restored mid-flight still settles
// bit-identical to an uninterrupted CH day — kernel and crash recovery
// are both invisible.
func TestDurableRoadNetworkAlgoRestore(t *testing.T) {
	cfg := trace.NewConfig(97, 80, 30, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)

	ref, err := New(market, WithSeed(7), WithBatching(45, Hungarian),
		WithRoadNetwork(RoadNetwork{Rows: 12, Cols: 14, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, ref, tr, feed)
	if _, err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rn := RoadNetwork{Rows: 12, Cols: 14, Seed: 2, Algo: "alt"}
	svc, err := New(market, WithSeed(7), WithBatching(45, Hungarian), WithRoadNetwork(rn),
		WithDurability(dir, DurFsync("interval")))
	if err != nil {
		t.Fatal(err)
	}
	cut := len(feed) / 2
	applyFeed(t, svc, tr, feed[:cut])
	svc = nil // crash: journal abandoned, nothing flushed

	restored, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := restored.cfg.roadnet; got == nil || got.Algo != "alt" {
		t.Fatalf("restored service lost the routing kernel choice: %+v", got)
	}
	applyFeed(t, restored, tr, feed[cut:])
	if _, err := restored.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.final, restored.final) {
		t.Fatalf("alt restore settled differently from uninterrupted ch day (served %d vs %d, revenue %.9f vs %.9f)",
			restored.final.Served, ref.final.Served, restored.final.Revenue, ref.final.Revenue)
	}
}

// TestRoadMarketSpawnsNoGoroutines: a road market sweeps its distance
// table on worker goroutines while it is built, and every one of them is
// joined before New or Restore returns — the road counterpart of
// internal/sim's TestEngineSpawnsNoGoroutines. GOMAXPROCS is raised so
// that workers are spawned at every -cpu, and the journal runs under
// "off" because the "interval" policy's syncer is a goroutine by design.
func TestRoadMarketSpawnsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rn, err := RoadNetwork{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if r, err := rn.build(); err != nil {
		t.Fatal(err)
	} else if dist, _ := r.Table(); dist == nil {
		t.Fatal("the default road network has no distance table: nothing here is swept in parallel")
	}
	cfg := trace.NewConfig(83, 80, 30, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)

	dir := t.TempDir()
	before := runtime.NumGoroutine()
	svc, err := New(market, WithSeed(7), WithBatching(45, Hungarian), WithRoadNetwork(rn),
		WithDurability(dir, DurFsync("off")))
	if err != nil {
		t.Fatal(err)
	}
	if n := goroutinesBackTo(before); n > before {
		t.Errorf("New: %d goroutines after, %d before", n, before)
	}
	cut := len(feed) / 2
	applyFeed(t, svc, tr, feed[:cut])
	svc = nil // crash: journal abandoned, nothing flushed

	before = runtime.NumGoroutine()
	restored, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if n := goroutinesBackTo(before); n > before {
		t.Errorf("Restore: %d goroutines after, %d before", n, before)
	}
	applyFeed(t, restored, tr, feed[cut:])
	if _, err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

// goroutinesBackTo returns the goroutine count once it is back at or
// below want, or what it is after a second of waiting. A worker's
// WaitGroup.Done runs a few instructions before its goroutine is gone, so
// the count may lag a join by that much; a worker left running never
// comes back.
func goroutinesBackTo(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	return n
}

// TestWithDistanceFunc: an arbitrary metric is honored (an inflated
// crow-fly changes the books) but refuses to combine with durability.
func TestWithDistanceFunc(t *testing.T) {
	cfg := trace.NewConfig(79, 70, 30, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)

	inflated := func(a, b Point) float64 {
		return 1.3 * geo.Equirectangular(geo.Point(a), geo.Point(b))
	}
	crow := settleTrace(t, tr, WithSeed(3))
	inf := settleTrace(t, tr, WithSeed(3), WithDistanceFunc(inflated))
	if reflect.DeepEqual(crow, inf) {
		t.Fatal("WithDistanceFunc settled bit-identical to the default metric; the function is not wired in")
	}

	if _, err := New(Market{}, WithDistanceFunc(nil)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("nil distance function: err = %v, want ErrInvalidOption", err)
	}
	if _, err := New(Market{}, WithDistanceFunc(inflated), WithDurability(t.TempDir())); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("WithDistanceFunc + WithDurability: err = %v, want ErrInvalidOption", err)
	}
}

// TestNaNMetricAssignsNothing: a distance function that answers NaN
// fails every deadline clause it enters — a clause written "infeasible
// if past the bound" would pass it — so no order is assigned, under any
// policy, instant or batched, and the books stay finite. "way home" is
// NaN only towards the drivers' destination: the return-home clause.
// "the ride" is NaN only from the pickup to the dropoff: the dropoff
// clause, which alone stands between Nearest and a finite arrival.
func TestNaNMetricAssignsNothing(t *testing.T) {
	home, ride := overloadMarket().Drivers[0].Dest, overloadTask(0, 0)
	nanOn := func(nan func(a, b Point) bool) func(a, b Point) float64 {
		return func(a, b Point) float64 {
			if nan(a, b) {
				return math.NaN()
			}
			return geo.Equirectangular(geo.Point(a), geo.Point(b))
		}
	}
	for name, dist := range map[string]func(a, b Point) float64{
		"every pair": nanOn(func(Point, Point) bool { return true }),
		"way home":   nanOn(func(_, b Point) bool { return b == home }),
		"the ride":   nanOn(func(a, b Point) bool { return a == ride.Source && b == ride.Dest }),
	} {
		for _, policy := range []Policy{MaxMargin, Nearest, Random} {
			for _, window := range []float64{0, 60} {
				opts := []Option{WithDistanceFunc(dist), WithDispatcher(policy)}
				if window > 0 {
					opts = append(opts, WithBatching(window, Hungarian))
				}
				svc, err := New(overloadMarket(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				for id := 1; id <= 3; id++ {
					a, err := svc.SubmitTask(context.Background(), overloadTask(id, 10*float64(id)))
					if err != nil {
						t.Fatal(err)
					}
					if a.Assigned {
						t.Errorf("%s, %v, window %g: order %d assigned to %d, pickup by %g", name, policy, window, id, a.DriverID, a.PickupBy)
					}
				}
				st, err := svc.Close()
				if err != nil {
					t.Fatal(err)
				}
				if st.Served != 0 || st.Profit != 0 || st.Revenue != 0 {
					t.Errorf("%s, %v, window %g: served %d for revenue %g, profit %g; want nothing", name, policy, window, st.Served, st.Revenue, st.Profit)
				}
			}
		}
	}
}

// TestRoadNetworkOptionValidation covers the rejection surface: bad
// grids, bad cache bounds and the mutual exclusion with
// WithDistanceFunc in both orders.
func TestRoadNetworkOptionValidation(t *testing.T) {
	bad := []RoadNetwork{
		{Rows: 1},
		{Cols: 1},
		{Rows: -3, Cols: 10},
		{CacheEntries: -1},
		{Algo: "dijkstra"},
		{Algo: "CH"}, // case-sensitive: the journaled string is canonical
	}
	for _, rn := range bad {
		if _, err := New(Market{}, WithRoadNetwork(rn)); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("WithRoadNetwork(%+v): err = %v, want ErrInvalidOption", rn, err)
		}
	}
	dist := func(a, b Point) float64 { return geo.Equirectangular(geo.Point(a), geo.Point(b)) }
	if _, err := New(Market{}, WithRoadNetwork(RoadNetwork{}), WithDistanceFunc(dist)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("roadnet then distfunc: err = %v, want ErrInvalidOption", err)
	}
	if _, err := New(Market{}, WithDistanceFunc(dist), WithRoadNetwork(RoadNetwork{})); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("distfunc then roadnet: err = %v, want ErrInvalidOption", err)
	}
}

// TestDurableRoadNetworkRestore: the network metric survives a crash.
// A durable WithRoadNetwork service abandoned mid-day and rebuilt with
// Restore — which must regenerate the identical seeded graph from the
// journaled fingerprint — settles bit-identical to an uninterrupted
// in-memory service under the same metric.
func TestDurableRoadNetworkRestore(t *testing.T) {
	cfg := trace.NewConfig(83, 80, 30, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(6, 0.3, 0.25))
	market, feed := durFeed(tr)

	rn := RoadNetwork{Rows: 12, Cols: 14, Seed: 2}
	ref, err := New(market, WithSeed(7), WithBatching(45, Hungarian), WithRoadNetwork(rn))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, ref, tr, feed)
	wantStats, err := ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{1, len(feed) / 2, len(feed) - 1} {
		dir := t.TempDir()
		svc, err := New(market, WithSeed(7), WithBatching(45, Hungarian), WithRoadNetwork(rn),
			WithDurability(dir, DurFsync("interval")))
		if err != nil {
			t.Fatal(err)
		}
		if got := svc.cfg.roadnet; got == nil || got.Rows != 12 || got.Cols != 14 || got.Seed != 2 || got.CacheEntries == 0 {
			t.Fatalf("cut %d: normalized roadnet config not retained: %+v", cut, got)
		}
		applyFeed(t, svc, tr, feed[:cut])
		svc = nil // crash: journal abandoned, nothing flushed

		restored, err := Restore(dir)
		if err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		if got := restored.cfg.roadnet; got == nil || got.Rows != 12 || got.Cols != 14 || got.Seed != 2 {
			t.Fatalf("cut %d: restored service lost the road network config: %+v", cut, got)
		}
		applyFeed(t, restored, tr, feed[cut:])
		gotStats, err := restored.Close()
		if err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		gotStats.FeedDrops, wantStats.FeedDrops = 0, 0
		if !reflect.DeepEqual(wantStats, gotStats) {
			t.Fatalf("cut %d: stats diverged\nwant %+v\ngot  %+v", cut, wantStats, gotStats)
		}
		if !reflect.DeepEqual(ref.final, restored.final) {
			t.Fatalf("cut %d: settled result diverged (served %d vs %d, revenue %.9f vs %.9f)",
				cut, ref.final.Served, restored.final.Served, ref.final.Revenue, restored.final.Revenue)
		}
	}
}
