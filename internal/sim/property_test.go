package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// Property: on arbitrary random markets, every dispatch mode conserves
// task accounting (served + rejected == total), keeps per-driver sums
// equal to totals, and never produces NaN money.
func TestQuickSimulationConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTasks := 10 + rng.Intn(60)
		nDrivers := 1 + rng.Intn(15)
		dm := trace.DriverModel(rng.Intn(2))
		cfg := trace.NewConfig(seed, nTasks, nDrivers, dm)
		tr := trace.NewGenerator(cfg).Generate(nil)
		eng, err := New(cfg.Market, tr.Drivers, seed)
		if err != nil {
			return false
		}
		eng.RealTime = seed%2 == 0

		check := func(res Result) bool {
			if res.Served+res.Rejected != nTasks {
				return false
			}
			var profit, revenue float64
			tasksServed := 0
			for i := range res.PerDriverProfit {
				profit += res.PerDriverProfit[i]
				revenue += res.PerDriverRevenue[i]
				tasksServed += res.PerDriverTasks[i]
			}
			if tasksServed != res.Served {
				return false
			}
			if math.Abs(profit-res.TotalProfit) > 1e-6 {
				return false
			}
			if math.IsNaN(res.TotalProfit) || math.IsNaN(res.Revenue) {
				return false
			}
			if len(res.Assignment) != res.Served {
				return false
			}
			return true
		}

		return check(eng.RunScenario(tr.Tasks, nil, localMaxMargin{})) &&
			check(eng.RunBatchedScenario(tr.Tasks, nil, 60)) &&
			check(eng.RunReplanScenario(tr.Tasks, nil, 120))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a driver never serves two tasks whose service intervals
// (deadline-based) overlap — the lock discipline of Algorithms 3–4.
func TestQuickNoOverlappingService(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := trace.NewConfig(seed, 10+rng.Intn(50), 1+rng.Intn(10), trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		eng, err := New(cfg.Market, tr.Drivers, seed)
		if err != nil {
			return false
		}
		res := eng.RunScenario(tr.Tasks, nil, localMaxMargin{})
		for _, path := range res.DriverPaths {
			for i := 1; i < len(path); i++ {
				prev, cur := tr.Tasks[path[i-1]], tr.Tasks[path[i]]
				if cur.StartBy < prev.EndBy-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
