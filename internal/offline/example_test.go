package offline_test

import (
	"fmt"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/offline"
	"repro/internal/trace"
)

// The greedy algorithm (Algorithm 1) on two markets of §I with all
// demand known upfront. On a delivery day out of two depots, where a
// parcel may wait hours for pickup and 4–10 times its drive time for
// delivery, the task map has long chains (diameter D = 28) and one van
// routes 20 parcels. In a Waze Rider commute market, where each driver
// offers one 20–35 minute window, D = 4, so Theorem 1 guarantees the
// greedy at least 1/(D+1) = 1/5 of the optimum; against an upper bound
// on the optimum (bound.Auto) it reaches 0.98 there, and 0.93 on the
// delivery day.
func ExampleGreedy() {
	delivery := trace.NewConfig(2024, 300, 25, trace.HomeWorkHome)
	delivery.DayEnd = 12 * 3600
	delivery.SlackMin, delivery.SlackMax = 4, 10
	delivery.PickupWindowMin, delivery.PickupWindowMax = 30*60, 3*3600
	delivery.ShiftMean, delivery.ShiftStd = 8*3600, 30*60
	delivery.ShiftMinLen, delivery.ShiftMaxLen = 6*3600, 9*3600
	delivery.Hotspots = []trace.Hotspot{
		{Center: geo.Point{Lat: 41.17, Lon: -8.62}, StdKm: 3, Weight: 0.5},
		{Center: geo.Point{Lat: 41.14, Lon: -8.58}, StdKm: 3, Weight: 0.5},
	}
	commute := trace.NewConfig(7, 150, 60, trace.Hitchhiking)
	commute.ShiftMean, commute.ShiftStd = 25*60, 5*60
	commute.ShiftMinLen, commute.ShiftMaxLen = 20*60, 35*60

	fmt.Println("market    drivers  tasks   D  served  longest   profit    bound  ratio")
	for _, m := range []struct {
		name string
		cfg  trace.Config
	}{{"delivery", delivery}, {"commute", commute}} {
		tr := trace.NewGenerator(m.cfg).Generate(nil)
		p, err := core.NewProblem(m.cfg.Market, tr.Drivers, tr.Tasks)
		if err != nil {
			panic(err)
		}
		g := p.Graph()
		sol := offline.Greedy(g)
		longest := 0
		for _, path := range sol.Paths {
			longest = max(longest, len(path.Tasks))
		}
		ub, _ := bound.Auto(g, sol.TotalProfit, 120)
		fmt.Printf("%-8s  %7d  %5d  %2d  %6d  %7d  %7.2f  %7.2f  %.2f\n", m.name, g.N(), g.M(),
			g.Diameter(), sol.ServedTasks(), longest, sol.TotalProfit, ub.Bound,
			core.PerformanceRatio(sol.TotalProfit, ub.Bound))
	}
	// Output:
	// market    drivers  tasks   D  served  longest   profit    bound  ratio
	// delivery       25    300  28     193       20  1017.29  1097.47  0.93
	// commute        60    150   4      42        4    58.21    59.10  0.98
}
