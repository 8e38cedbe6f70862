package pricing_test

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/online"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// An Uber-style day with zone surge pricing (Eq. 15): each order is
// priced at publish time from the demand/supply imbalance of its pickup
// zone, on a 6×6 grid capped at 3×, and the day is then dispatched by
// maxMargin (Algorithm 4). Every half hour the observations decay and
// the drivers on shift are counted again as supply.
func ExampleSurge() {
	cfg := trace.NewConfig(99, 400, 50, trace.HomeWorkHome)
	gen := trace.NewGenerator(cfg)
	tasks, drivers := gen.GenerateTasks(), gen.GenerateDrivers()
	surge := pricing.NewSurge(pricing.NewLinear(cfg.Market, 1), geo.NewGrid(cfg.Box, 6, 6), 3)
	observeSupply := func(at float64) {
		for _, d := range drivers {
			if d.Start <= at && at <= d.End {
				surge.ObserveSupply(d.Source, 1)
			}
		}
	}
	observeSupply(0)
	var bucket, sum, peak, peakAt float64
	surged := 0
	for i := range tasks {
		for tasks[i].Publish > bucket+1800 {
			surge.Decay(0.6)
			bucket += 1800
			observeSupply(bucket)
		}
		surge.ObserveDemand(tasks[i].Source, 1)
		m := surge.Multiplier(tasks[i].Source)
		sum += m
		if m > 1.01 {
			surged++
		}
		if m > peak {
			peak, peakAt = m, tasks[i].Publish
		}
		tasks[i].Price = surge.Price(tasks[i])
		tasks[i].WTP = tasks[i].Price * 1.5
	}
	fmt.Printf("surged orders %d of %d, mean multiplier %.2f, peak %.2f at hour %.1f\n",
		surged, len(tasks), sum/float64(len(tasks)), peak, peakAt/3600)

	eng, err := sim.New(cfg.Market, drivers, 1)
	if err != nil {
		panic(err)
	}
	res := eng.RunScenario(tasks, nil, online.MaxMargin{})
	fmt.Printf("served %d, revenue %.2f, drivers' profit %.2f\n", res.Served, res.Revenue, res.TotalProfit)
	// Output:
	// surged orders 170 of 400, mean multiplier 1.23, peak 3.00 at hour 1.1
	// served 256, revenue 470.64, drivers' profit 416.85
}
