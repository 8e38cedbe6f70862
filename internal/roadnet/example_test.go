package roadnet_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/offline"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// A Router's Dist is a geo.DistanceFunc, so a street grid plugs into the
// market as its metric. One day of demand is planned by the offline
// greedy twice: with road distances, and with straight-line distances,
// which the streets make 1.21 times longer on average. Replayed on the
// roads, half of the crow-fly plan's routes break, and it delivers 29 %
// of the road plan's profit.
func ExampleRouter_Dist() {
	g, err := roadnet.GenerateGrid(roadnet.DefaultGridConfig())
	if err != nil {
		panic(err)
	}
	router := roadnet.NewRouter(g, geo.PortoBox, 10)
	fmt.Printf("streets: %d intersections, %d segments, circuity %.2f\n",
		g.NumNodes(), g.NumEdges(), router.Circuity(300))

	cfg := trace.NewConfig(5, 150, 25, trace.Hitchhiking)
	cfg.Market.Dist = router.Dist
	tr := trace.NewGenerator(cfg).Generate(nil)
	roads, err := core.NewProblem(cfg.Market, tr.Drivers, tr.Tasks)
	if err != nil {
		panic(err)
	}
	roadPlan := offline.Greedy(roads.Graph())
	fmt.Printf("road plan:     %3d tasks, profit %.2f\n", roadPlan.ServedTasks(), roadPlan.TotalProfit)

	crowMarket := cfg.Market
	crowMarket.Dist = geo.Equirectangular
	crow, err := core.NewProblem(crowMarket, tr.Drivers, tr.Tasks)
	if err != nil {
		panic(err)
	}
	crowPlan := offline.Greedy(crow.Graph())
	fmt.Printf("crow-fly plan: %3d tasks, profit %.2f\n", crowPlan.ServedTasks(), crowPlan.TotalProfit)

	// A crow-fly route survives only if it is still a feasible chain at
	// road distances.
	kept, broken, profit := 0, 0, 0.0
	for _, p := range crowPlan.Paths {
		if v, err := roads.Graph().PathProfit(p.Driver, p.Tasks); err == nil {
			kept, profit = kept+len(p.Tasks), profit+v
		} else {
			broken++
		}
	}
	fmt.Printf("  on the roads: %d tasks, %d of %d routes broken, profit %.2f (%.0f%% of the road plan)\n",
		kept, broken, len(crowPlan.Paths), profit, 100*profit/roadPlan.TotalProfit)
	// Output:
	// streets: 480 intersections, 1766 segments, circuity 1.21
	// road plan:     113 tasks, profit 323.00
	// crow-fly plan: 119 tasks, profit 352.43
	//   on the roads: 39 tasks, 8 of 16 routes broken, profit 92.97 (29% of the road plan)
}
