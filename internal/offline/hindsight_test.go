package offline

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/trace"
)

// twoPointTrace builds a hand-sized scenario: driver home near the
// first point, tasks between named points, everything else derived from
// the market so the test never hardcodes float geometry.
func hindsightScenario() (model.Market, model.Driver, model.Task, model.Task) {
	market := model.DefaultMarket()
	p0 := geo.Point{Lat: 41.15, Lon: -8.61}
	p1 := geo.Point{Lat: 41.16, Lon: -8.60} // ~1.4 km from p0
	p2 := geo.Point{Lat: 41.17, Lon: -8.59}
	d := model.Driver{ID: 1, Source: p0, Dest: p0, Start: 0, End: 40000}
	// Task A: p1 → p2; generous window.
	a := model.Task{ID: 10, Publish: 0, Source: p1, Dest: p2, StartBy: 2000, EndBy: 4000, Price: 10, WTP: 12}
	// Task B starts where A ends, after A's deadline.
	b := model.Task{ID: 11, Publish: 100, Source: p2, Dest: p1, StartBy: 4500, EndBy: 7000, Price: 10, WTP: 12}
	return market, d, a, b
}

func TestCompileCancelBarsPickup(t *testing.T) {
	market, d, a, _ := hindsightScenario()
	travel := market.DriverTravelTime(d, d.Source, a.Source)
	tr := model.Trace{Drivers: []model.Driver{d}, Tasks: []model.Task{a}}

	// No events: reachable.
	in, err := Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.NSlots() != 1 || !in.DrvSrcOK[0] {
		t.Fatalf("baseline: slots=%d srcOK=%v, want 1 reachable pair", in.NSlots(), in.NSlots() == 1 && in.DrvSrcOK[0])
	}

	// Cancellation before the driver can arrive bars the pickup.
	tr.Events = []model.MarketEvent{{At: travel - 100, Kind: model.EventCancel, Task: 0}}
	in, err = Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.NSlots() != 1 || in.DrvSrcOK[0] {
		t.Fatalf("early cancel: slots=%d, srcOK=%v — pickup must be barred", in.NSlots(), in.NSlots() == 1 && in.DrvSrcOK[0])
	}
	// In rail mode the unreachable pair disappears entirely.
	in, err = Compile(market, tr, Options{TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if in.NSlots() != 0 {
		t.Fatalf("rail early cancel: %d slots, want 0", in.NSlots())
	}

	// Cancellation after the feasible arrival leaves the pair usable.
	tr.Events = []model.MarketEvent{{At: travel + 100, Kind: model.EventCancel, Task: 0}}
	in, err = Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.NSlots() != 1 || !in.DrvSrcOK[0] {
		t.Fatal("late cancel: pair must stay reachable")
	}
}

func TestCompileCancelBarsArcs(t *testing.T) {
	market, d, a, b := hindsightScenario()
	tr := model.Trace{Drivers: []model.Driver{d}, Tasks: []model.Task{a, b}}

	in, err := Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := in.Slot(0, 0), in.Slot(0, 1)
	if sa < 0 || sb < 0 || in.SuccIndex(sa, sb) < 0 {
		t.Fatal("baseline: expected arc A→B")
	}

	// Cancel B before A's dropoff deadline: the chain gap vanishes.
	tr.Events = []model.MarketEvent{{At: a.EndBy - 100, Kind: model.EventCancel, Task: 1}}
	in, err = Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb = in.Slot(0, 0), in.Slot(0, 1)
	if sa < 0 || sb < 0 {
		t.Fatal("cancel: both pairs should stay (B is still first-task reachable before its bar)")
	}
	if in.SuccIndex(sa, sb) >= 0 {
		t.Fatal("cancel before A's deadline must bar the A→B chain")
	}
}

func TestCompileJoinRetirePresence(t *testing.T) {
	market, d, a, _ := hindsightScenario()
	tr := model.Trace{Drivers: []model.Driver{d}, Tasks: []model.Task{a}}

	// Join after the pickup bar: the driver was unknown in time.
	tr.Events = []model.MarketEvent{{At: a.StartBy + 50, Kind: model.EventJoin, Driver: 0}}
	in, err := Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.NSlots() != 0 {
		t.Fatalf("late join: %d slots, want 0", in.NSlots())
	}

	// Join leaving exactly enough travel slack keeps the pair.
	travel := market.DriverTravelTime(d, d.Source, a.Source)
	tr.Events = []model.MarketEvent{{At: a.StartBy - travel - 1, Kind: model.EventJoin, Driver: 0}}
	in, err = Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.NSlots() != 1 || !in.DrvSrcOK[0] {
		t.Fatal("timely join: pair must stay reachable")
	}

	// Retire before the order is published: no candidacy.
	tr.Events = []model.MarketEvent{{At: a.Publish, Kind: model.EventRetire, Driver: 0}}
	tr.Tasks[0].Publish = 50
	in, err = Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.NSlots() != 0 {
		t.Fatalf("early retire: %d slots, want 0", in.NSlots())
	}

	// Retire after publication keeps the candidacy (commitment model).
	tr.Events = []model.MarketEvent{{At: 200, Kind: model.EventRetire, Driver: 0}}
	in, err = Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.NSlots() != 1 {
		t.Fatal("late retire: pair must survive")
	}
}

func TestCompileComponentsClosed(t *testing.T) {
	cfg := trace.NewConfig(9, 60, 15, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(9, 0.3, 0.2))
	in, err := Compile(cfg.Market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.NComp != in.Stats.Components || in.NComp == 0 {
		t.Fatalf("components = %d (stats %d)", in.NComp, in.Stats.Components)
	}
	for m := range tr.Tasks {
		for p := in.Pairs.RowPtr[m]; p < in.Pairs.RowPtr[m+1]; p++ {
			d := in.Pairs.Col[p]
			if in.Comp.CompOfRow[m] != in.Comp.CompOfCol[d] {
				t.Fatalf("pair (task %d, drv %d) crosses components", m, d)
			}
		}
	}
}

func TestCompileWorkerCountInvariant(t *testing.T) {
	cfg := trace.NewConfig(21, 80, 20, trace.HomeWorkHome)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(21, 0.2, 0.3))
	for _, topK := range []int{0, 4} {
		var ref *Instance
		for _, w := range []int{1, 2, 4} {
			in, err := Compile(cfg.Market, tr, Options{TopK: topK, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = in
				continue
			}
			if !reflect.DeepEqual(in.Pairs, ref.Pairs) || !reflect.DeepEqual(in.DrvTask, ref.DrvTask) ||
				!reflect.DeepEqual(in.ArcPtr, ref.ArcPtr) || !reflect.DeepEqual(in.ArcTo, ref.ArcTo) ||
				!reflect.DeepEqual(in.ArcCost, ref.ArcCost) || !reflect.DeepEqual(in.DrvSuccPtr, ref.DrvSuccPtr) ||
				!reflect.DeepEqual(in.DrvSucc, ref.DrvSucc) ||
				!reflect.DeepEqual(in.DrvSrcCost, ref.DrvSrcCost) || in.Stats != ref.Stats {
				t.Fatalf("TopK=%d workers=%d compiles a different instance", topK, w)
			}
		}
	}
}

func TestCompileRevenueMode(t *testing.T) {
	cfg := trace.NewConfig(33, 50, 12, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	profit, err := Compile(cfg.Market, tr, Options{Objective: ObjectiveProfit})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Compile(cfg.Market, tr, Options{Objective: ObjectiveRevenue})
	if err != nil {
		t.Fatal(err)
	}
	// Feasibility is objective-independent: identical structure.
	if !reflect.DeepEqual(profit.Pairs.Col, rev.Pairs.Col) || !reflect.DeepEqual(profit.DrvTask, rev.DrvTask) ||
		!reflect.DeepEqual(profit.ArcTo, rev.ArcTo) || !reflect.DeepEqual(profit.DrvSucc, rev.DrvSucc) {
		t.Fatal("revenue mode changed the kept graph")
	}
	for m, task := range tr.Tasks {
		if rev.Value[m] != task.Price {
			t.Fatalf("revenue value[%d] = %v, want price %v", m, rev.Value[m], task.Price)
		}
	}
	for s := range rev.DrvSrcCost {
		if rev.DrvSrcCost[s] != 0 || rev.DrvSnkCost[s] != 0 {
			t.Fatal("revenue mode must zero source/sink costs")
		}
	}
	for _, c := range rev.ArcCost {
		if c != 0 {
			t.Fatal("revenue mode must zero arc costs")
		}
	}
	for _, b := range rev.Baseline {
		if b != 0 {
			t.Fatal("revenue mode must zero baselines")
		}
	}
}

func TestCompileForcedKeepSurvivesRail(t *testing.T) {
	cfg := trace.NewConfig(7, 60, 25, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	// Exact instance to find a pair that rail pruning would drop.
	exact, err := Compile(cfg.Market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rail, err := Compile(cfg.Market, tr, Options{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	var keep [][2]int32
	for m := range tr.Tasks {
		for p := exact.Pairs.RowPtr[m]; p < exact.Pairs.RowPtr[m+1]; p++ {
			orig := int32(exact.DrvID[exact.Pairs.Col[p]])
			present := false
			for q := rail.Pairs.RowPtr[m]; q < rail.Pairs.RowPtr[m+1]; q++ {
				if rail.DrvID[rail.Pairs.Col[q]] == int(orig) {
					present = true
					break
				}
			}
			if !present {
				keep = append(keep, [2]int32{int32(m), orig})
			}
		}
	}
	if len(keep) == 0 {
		t.Skip("rail pruning dropped nothing at this size")
	}
	forced, err := Compile(cfg.Market, tr, Options{TopK: 1, Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	for _, kp := range keep {
		d := forced.CompactOf(int(kp[1]))
		if d < 0 || forced.Slot(d, int(kp[0])) < 0 {
			t.Fatalf("forced pair (task %d, driver %d) missing from rail instance", kp[0], kp[1])
		}
	}
	if forced.Stats.ForcedDropped != 0 {
		t.Fatalf("ForcedDropped = %d for feasible forced pairs", forced.Stats.ForcedDropped)
	}
}

func TestPruneTopK(t *testing.T) {
	mk := func(driver int, rank float64, forcedFlag bool) candidate {
		return candidate{driver: int32(driver), rank: rank, forced: forcedFlag}
	}
	cands := []candidate{mk(0, 1, false), mk(1, 3, false), mk(2, 3, false), mk(3, 2, false), mk(4, 0.5, true)}
	out := pruneTopK(append([]candidate(nil), cands...), 2)
	var drivers []int
	for _, c := range out {
		drivers = append(drivers, int(c.driver))
	}
	// Top-2 by rank: drivers 1 and 2 (tied at 3, both fit); forced 4 rides along.
	if !reflect.DeepEqual(drivers, []int{1, 2, 4}) {
		t.Fatalf("topk = %v, want [1 2 4]", drivers)
	}
	// Tie at the cutoff: earlier driver wins.
	cands = []candidate{mk(0, 2, false), mk(1, 3, false), mk(2, 2, false)}
	out = pruneTopK(append([]candidate(nil), cands...), 2)
	drivers = drivers[:0]
	for _, c := range out {
		drivers = append(drivers, int(c.driver))
	}
	if !reflect.DeepEqual(drivers, []int{0, 1}) {
		t.Fatalf("cutoff tie = %v, want [0 1]", drivers)
	}
}

func TestCompileStatsAndEffStartBars(t *testing.T) {
	market, d, a, _ := hindsightScenario()
	tr := model.Trace{Drivers: []model.Driver{d}, Tasks: []model.Task{a}}
	in, err := Compile(market, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.Stats.Pairs != 1 || in.Stats.ActiveDrivers != 1 {
		t.Fatalf("stats = %+v", in.Stats)
	}
	if !math.IsInf(in.RetireAt[0], 1) || in.EffStart[0] != d.Start || in.PickupBar[0] != a.StartBy {
		t.Fatal("event-free bars must be vacuous")
	}
}

// TestCompileBytesPerArc bounds what a compiled day costs in memory per
// driver's arc, the term that grows with drivers × (tasks per driver)²:
// the instance keeps each arc among kept tasks once and each driver's
// own arcs as 4-byte indices into them, and the compile makes its
// tables once instead of growing them. At 500 orders and 150 drivers it
// holds about 6.4 bytes per arc and allocates about 15; a 12-byte copy
// of every driver's arc, grown as it was found, held 14.8 and allocated
// 71.
func TestCompileBytesPerArc(t *testing.T) {
	for _, dm := range []trace.DriverModel{trace.Hitchhiking, trace.HomeWorkHome} {
		cfg := trace.NewConfig(1, 500, 150, dm)
		tr := trace.NewGenerator(cfg).Generate(nil)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		in, err := Compile(cfg.Market, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		arcs := float64(in.Stats.Arcs)
		held := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / arcs
		alloc := float64(after.TotalAlloc-before.TotalAlloc) / arcs
		runtime.KeepAlive(in)
		t.Logf("%v: %d arcs, %.2f bytes held and %.2f allocated per arc", dm, in.Stats.Arcs, held, alloc)
		if held > 8 || alloc > 24 {
			t.Errorf("%v: %.2f bytes held and %.2f allocated per arc, want at most 8 and 24", dm, held, alloc)
		}
	}
}
