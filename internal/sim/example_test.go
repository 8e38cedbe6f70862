package sim_test

import (
	"fmt"

	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
)

// One day of 800 orders dispatched by maxMargin (Algorithm 4) through
// the spatial index, at three fleet sizes. The index's counters give the
// work per order: the drivers the walk scored exactly, where a linear
// scan would score the whole fleet.
func ExampleGridSource_WalkStats() {
	const orders = 800
	fmt.Println("drivers  served  revenue   profit  exact scores/order")
	for _, drivers := range []int{100, 1_000, 10_000} {
		cfg := trace.NewConfig(7, orders, drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		eng, err := sim.New(cfg.Market, tr.Drivers, 1)
		if err != nil {
			panic(err)
		}
		src := sim.NewGridSource(nil)
		eng.SetCandidateSource(src)
		res := eng.RunScenario(tr.Tasks, nil, online.MaxMargin{})
		fmt.Printf("%7d  %6d  %7.2f  %7.2f  %18.2f\n", drivers, res.Served, res.Revenue,
			res.TotalProfit, float64(src.WalkStats().ExactScores)/orders)
	}
	// Output:
	// drivers  served  revenue   profit  exact scores/order
	//     100     594  1027.91   920.87                1.51
	//    1000     761  1285.08  1201.04                3.56
	//   10000     799  1342.13  1306.86                6.02
}
