package sim

import (
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/pricing"
	"repro/internal/trace"
)

// recordingPricer is a LivePricer stub that keeps every order's
// original price (so results are comparable against a pricer-free run)
// while counting the feed calls.
type recordingPricer struct {
	resets, decays   int
	demands, supplys int
	prices           int
}

func (p *recordingPricer) Price(t model.Task) float64       { p.prices++; return t.Price }
func (p *recordingPricer) ObserveDemand(geo.Point, float64) { p.demands++ }
func (p *recordingPricer) ObserveSupply(geo.Point, float64) { p.supplys++ }
func (p *recordingPricer) Decay(float64)                    { p.decays++ }
func (p *recordingPricer) Reset()                           { p.resets++ }

// TestLivePricerFeedPoints pins the feed protocol: Reset once per run,
// demand once per arrival, supply once per starting driver plus once
// per committed assignment, Decay once per closed window — and a pricer
// that preserves prices leaves the day's outcome untouched.
func TestLivePricerFeedPoints(t *testing.T) {
	cfg := trace.NewConfig(41, 80, 30, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)

	base, err := New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := base.RunBatched(tr.Tasks, 60, BatchHungarian)

	eng, err := New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingPricer{}
	eng.SetLivePricer(rec, 0.8, 0.5)
	got := eng.RunBatched(tr.Tasks, 60, BatchHungarian)

	if rec.resets != 1 {
		t.Errorf("resets = %d, want 1", rec.resets)
	}
	if rec.demands != len(tr.Tasks) || rec.prices != len(tr.Tasks) {
		t.Errorf("demands/prices = %d/%d, want %d each", rec.demands, rec.prices, len(tr.Tasks))
	}
	if wantSupply := len(tr.Drivers) + got.Served; rec.supplys != wantSupply {
		t.Errorf("supplys = %d, want %d (fleet seed + one per assignment)", rec.supplys, wantSupply)
	}
	if rec.decays == 0 {
		t.Errorf("Decay never called; every closed window must decay the pricer")
	}
	// WTP restamping aside, a price-preserving pricer must not change
	// the day's economics.
	got.Assignment = want.Assignment // maps compare below
	if got.Served != want.Served || got.Rejected != want.Rejected ||
		got.Revenue != want.Revenue || got.TotalProfit != want.TotalProfit {
		t.Fatalf("price-preserving live pricer changed the outcome: %+v vs %+v", got, want)
	}
}

// TestLivePricerDoesNotMutateCallerTasks: the engine re-prices a
// private copy; the caller's slice is untouched.
func TestLivePricerDoesNotMutateCallerTasks(t *testing.T) {
	cfg := trace.NewConfig(43, 50, 20, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	orig := append([]model.Task(nil), tr.Tasks...)

	eng, err := New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	surge := pricing.NewSurge(pricing.NewLinear(cfg.Market, 1), geo.NewGrid(cfg.Box, 8, 8), 3)
	eng.SetLivePricer(surge, 0.7, 0.5)
	eng.RunBatched(tr.Tasks, 60, BatchHungarian)
	if !reflect.DeepEqual(orig, tr.Tasks) {
		t.Fatal("live pricing mutated the caller's task slice")
	}
}

// TestLiveSurgeMovesPrices: concentrated demand against thin supply
// must surge — the multiplier at the hotspot exceeds 1 mid-run and
// total revenue strictly exceeds the flat-priced day on an identical
// assignment-friendly market.
func TestLiveSurgeMovesPrices(t *testing.T) {
	cfg := trace.NewConfig(47, 120, 60, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	// Pile every pickup into one zone so demand/supply > 1 there.
	hot := cfg.Box.Lerp(0.5, 0.5)
	tasks := append([]model.Task(nil), tr.Tasks...)
	for i := range tasks {
		tasks[i].Source = hot
	}

	flatEng, err := New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	flat := flatEng.RunBatched(tasks, 60, BatchHungarian)

	surgeEng, err := New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	surge := pricing.NewSurge(pricing.NewLinear(cfg.Market, 1), geo.NewGrid(cfg.Box, 8, 8), 3)
	surge.Base.Market = cfg.Market
	surgeEng.SetLivePricer(surge, 1, 0.5)
	surged := surgeEng.RunBatched(tasks, 60, BatchHungarian)

	if m := surge.Multiplier(hot); m <= 1 {
		t.Fatalf("hotspot multiplier %v at day end, want > 1", m)
	}
	if surged.Served == 0 || flat.Served == 0 {
		t.Fatalf("degenerate day: served %d flat / %d surged", flat.Served, surged.Served)
	}
	if surged.Revenue <= flat.Revenue {
		t.Fatalf("surged revenue %.3f not above flat revenue %.3f", surged.Revenue, flat.Revenue)
	}
}

// TestLiveSurgeDifferential is the live-pricing half of the
// differential wall: with a surge pricer fed from the event loop, every
// candidate source × match-worker count must still
// produce bit-identical results, because every feed point sits on the
// single-goroutine event drain. Churn and cancellations included.
func TestLiveSurgeDifferential(t *testing.T) {
	cfg := trace.NewConfig(53, 150, 120, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.ChurnConfig{
		Seed: 7, JoinFraction: 0.2, RetireFraction: 0.15, CancelFraction: 0.2,
	})

	type variant struct {
		name    string
		src     func() CandidateSource
		workers int
	}
	variants := []variant{
		{"scan", func() CandidateSource { return nil }, 1},
	}
	for _, workers := range []int{1, 2, 4} {
		variants = append(variants, variant{"indexed", func() CandidateSource { return NewGridSource(nil) }, workers})
	}

	run := func(v variant, batched bool) Result {
		eng, err := New(cfg.Market, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetCandidateSource(v.src())
		eng.MatchWorkers = v.workers
		surge := pricing.NewSurge(pricing.NewLinear(cfg.Market, 1), geo.NewGrid(cfg.Box, 8, 8), 3)
		eng.SetLivePricer(surge, 0.7, 0.5)
		if batched {
			return eng.RunBatchedScenario(tr.Tasks, events, 60, BatchHungarian)
		}
		return eng.RunScenario(tr.Tasks, events, diffMaxMargin{})
	}
	for _, batched := range []bool{false, true} {
		want := run(variants[0], batched)
		if want.Served == 0 {
			t.Fatalf("degenerate baseline (batched=%v): nothing served", batched)
		}
		for _, v := range variants[1:] {
			if got := run(v, batched); !reflect.DeepEqual(want, got) {
				t.Errorf("batched=%v: %s(workers=%d) diverges from scan under live surge: served %d vs %d, revenue %.9f vs %.9f",
					batched, v.name, v.workers, got.Served, want.Served, got.Revenue, want.Revenue)
			}
		}
	}
}
