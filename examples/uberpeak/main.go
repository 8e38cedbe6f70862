// Uberpeak simulates a full online day of an Uber-style market with
// zone-based surge pricing (§II, Eq. 15): tasks are priced at publish
// time by the demand/supply imbalance of their pickup zone, drivers are
// dispatched by the maximum-marginal-value heuristic (Algorithm 4), and
// the run reports how the surge multiplier tracked the rush hours.
//
// Run with:
//
//	go run ./examples/uberpeak
package main

import (
	"fmt"
	"log"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	cfg := trace.NewConfig(99, 400, 50, trace.HomeWorkHome) // full-time fleet
	gen := trace.NewGenerator(cfg)
	tasks := gen.GenerateTasks()
	drivers := gen.GenerateDrivers()

	// Surge pricer over a 6x6 zone grid, capped at 3x. Demand/supply
	// observations decay every simulated half hour.
	grid := geo.NewGrid(cfg.Box, 6, 6)
	surge := pricing.NewSurge(pricing.NewLinear(cfg.Market, 1), grid, 3)

	// Price tasks in publish order, decaying observations between half-
	// hour buckets so surge follows the demand curve of the day. Each
	// bucket re-observes the supply of drivers whose shift covers it,
	// so the multiplier reflects the *current* demand/supply imbalance.
	observeSupply := func(at float64) {
		for _, d := range drivers {
			if d.Start <= at && at <= d.End {
				surge.ObserveSupply(d.Source, 1)
			}
		}
	}
	observeSupply(0)
	var bucket float64
	var multipliers []float64
	peak := 1.0
	var peakHour float64
	for i := range tasks {
		for tasks[i].Publish > bucket+1800 {
			surge.Decay(0.6)
			bucket += 1800
			observeSupply(bucket)
		}
		surge.ObserveDemand(tasks[i].Source, 1)
		m := surge.Multiplier(tasks[i].Source)
		multipliers = append(multipliers, m)
		if m > peak {
			peak = m
			peakHour = tasks[i].Publish / 3600
		}
		tasks[i].Price = surge.Price(tasks[i])
		tasks[i].WTP = tasks[i].Price * 1.5
	}

	if err := model.ValidateAll(cfg.Market, drivers, tasks); err != nil {
		log.Fatal(err)
	}

	// Dispatch online with maxMargin.
	eng, err := sim.New(cfg.Market, drivers, 1)
	if err != nil {
		log.Fatal(err)
	}
	res := eng.RunScenario(tasks, nil, online.MaxMargin{})

	var avgMult float64
	surged := 0
	for _, m := range multipliers {
		avgMult += m
		if m > 1.01 {
			surged++
		}
	}
	avgMult /= float64(len(multipliers))

	fmt.Printf("uber-style day: %d orders, %d drivers, 6x6 surge zones\n\n", len(tasks), len(drivers))
	fmt.Printf("surged orders        %d / %d (%.0f%%)\n", surged, len(tasks), 100*float64(surged)/float64(len(tasks)))
	fmt.Printf("avg surge multiplier %.2f\n", avgMult)
	fmt.Printf("peak multiplier      %.2f at hour %.1f\n\n", peak, peakHour)
	fmt.Printf("served               %d (%.0f%%)\n", res.Served, 100*res.ServeRate())
	fmt.Printf("platform revenue     %.2f\n", res.Revenue)
	fmt.Printf("drivers' profit      %.2f\n", res.TotalProfit)
	fmt.Printf("avg revenue/driver   %.2f\n", res.AvgRevenuePerDriver())
}
