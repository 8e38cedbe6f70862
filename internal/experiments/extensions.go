package experiments

import (
	"context"
	"fmt"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file holds the evaluation extensions beyond the paper's figures:
//
//   - WelfareComparison quantifies §III-C vs §III-D: how much social
//     welfare is lost by optimizing drivers' profit instead of welfare
//     (the paper argues profit optimization "is enough" in practice —
//     this experiment measures the gap).
//   - SurgeSweep operationalizes the §VI-C discussion of congestion
//     control: the surge-multiplier cap is swept and its effect on serve
//     rate, revenue, per-driver earnings and earnings inequality (Gini)
//     is reported.
//   - DispatchComparison lines up every dispatch strategy in the
//     framework (the paper's two heuristics plus batched matching and
//     rolling-horizon re-optimization) against the bound on one market.
//   - ChurnSweep opens the two workloads the paper's static-fleet
//     evaluation could not express: driver churn (mid-day joins, early
//     retirements) and rider cancellations, swept over increasing
//     rates on the event-driven engine.

// WelfareRow is one line of the welfare-objective comparison.
type WelfareRow struct {
	Drivers int
	// ProfitObjective: greedy run on the p_m objective (Eq. 4), then
	// both metrics evaluated on the resulting assignment.
	ProfitObjProfit  float64
	ProfitObjWelfare float64
	// WelfareObjective: greedy run on the b_m objective (Eq. 6).
	WelfareObjProfit  float64
	WelfareObjWelfare float64
}

// WelfareComparison runs the greedy algorithm under both objectives of
// §III across the driver sweep (hitchhiking model). Sweep points run
// concurrently on cfg.Workers workers.
func WelfareComparison(ctx context.Context, cfg Config) ([]WelfareRow, error) {
	rows := make([]WelfareRow, len(cfg.Sweep))
	err := forEachIndex(ctx, cfg.Workers, len(cfg.Sweep), func(pi int) error {
		n := cfg.Sweep[pi]
		p, err := buildProblem(cfg, cfg.Seed, n, trace.Hitchhiking)
		if err != nil {
			return err
		}
		profitSol, err := core.GreedySolver{}.Solve(p)
		if err != nil {
			return err
		}
		w := p.WelfareProblem()
		welfareSol, err := core.GreedySolver{}.Solve(w)
		if err != nil {
			return err
		}
		// Evaluate the welfare solution's true profit on the original
		// problem (its Profit field is the b_m objective value).
		var welfareObjProfit float64
		g := p.Graph()
		for _, path := range welfareSol.Paths {
			pr, err := g.ValueOf(path)
			if err != nil {
				return fmt.Errorf("experiments: welfare path invalid on profit view: %w", err)
			}
			welfareObjProfit += pr
		}
		rows[pi] = WelfareRow{
			Drivers:           n,
			ProfitObjProfit:   profitSol.Profit,
			ProfitObjWelfare:  profitSol.Welfare(p),
			WelfareObjProfit:  welfareObjProfit,
			WelfareObjWelfare: welfareSol.Profit, // Eq. (6) value
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WelfareFigure renders the comparison as a Figure (two welfare curves).
func WelfareFigure(rows []WelfareRow) Figure {
	fig := Figure{
		ID:     "ext-welfare",
		Title:  "Social Welfare: profit objective vs welfare objective",
		XLabel: "number of drivers", YLabel: "social welfare (Eq. 6)",
		Series: make([]Series, 2),
		Notes:  "gap = welfare left on the table by optimizing Eq. 4 instead of Eq. 6 (§III-E)",
	}
	fig.Series[0].Name = "greedy(profit obj)"
	fig.Series[1].Name = "greedy(welfare obj)"
	for _, r := range rows {
		x := float64(r.Drivers)
		fig.Series[0].X = append(fig.Series[0].X, x)
		fig.Series[0].Y = append(fig.Series[0].Y, r.ProfitObjWelfare)
		fig.Series[1].X = append(fig.Series[1].X, x)
		fig.Series[1].Y = append(fig.Series[1].Y, r.WelfareObjWelfare)
	}
	return fig
}

// SurgeRow is one line of the surge-cap sweep.
type SurgeRow struct {
	MaxAlpha  float64
	ServeRate float64
	Revenue   float64
	AvgProfit float64 // mean driver profit
	Gini      float64 // inequality of per-driver revenue
}

// SurgeSweep fixes the market (tasks, drivers) and sweeps the surge
// multiplier cap; each point re-prices the day under that cap and runs
// the maxMargin dispatcher. Cap 1.0 is flat pricing.
func SurgeSweep(ctx context.Context, cfg Config, drivers int, caps []float64) ([]SurgeRow, error) {
	tcfg := trace.NewConfig(cfg.Seed, cfg.Tasks, drivers, trace.HomeWorkHome)
	gen := trace.NewGenerator(tcfg)
	baseTasks := gen.GenerateTasks()
	drv := gen.GenerateDrivers()

	var rows []SurgeRow
	for _, cap := range caps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tasks := append([]model.Task(nil), baseTasks...)
		grid := geo.NewGrid(tcfg.Box, 6, 6)
		surge := pricing.NewSurge(pricing.NewLinear(tcfg.Market, 1), grid, cap)
		for _, d := range drv {
			surge.ObserveSupply(d.Source, 1)
		}
		var bucket float64
		for i := range tasks {
			for tasks[i].Publish > bucket+1800 {
				surge.Decay(0.7)
				bucket += 1800
			}
			surge.ObserveDemand(tasks[i].Source, 1)
			tasks[i].Price = surge.Price(tasks[i])
			tasks[i].WTP = tasks[i].Price * 1.5
		}
		eng, err := sim.New(tcfg.Market, drv, cfg.Seed)
		if err != nil {
			return nil, err
		}
		res := eng.RunScenario(tasks, nil, online.MaxMargin{})
		rows = append(rows, SurgeRow{
			MaxAlpha:  cap,
			ServeRate: res.ServeRate(),
			Revenue:   res.Revenue,
			AvgProfit: res.TotalProfit / float64(len(drv)),
			Gini:      stats.Gini(res.PerDriverRevenue),
		})
	}
	return rows, nil
}

// SurgeFigure renders the sweep.
func SurgeFigure(rows []SurgeRow) Figure {
	fig := Figure{
		ID:     "ext-surge",
		Title:  "Surge cap sweep (congestion control, §VI-C)",
		XLabel: "surge multiplier cap", YLabel: "metric",
		Series: make([]Series, 4),
		Notes:  "maxMargin dispatch; revenue rescaled by 1/100 to share the axis",
	}
	names := []string{"serve-rate", "revenue/100", "avg-driver-profit", "gini(revenue)"}
	for i, name := range names {
		fig.Series[i].Name = name
	}
	for _, r := range rows {
		x := r.MaxAlpha
		vals := []float64{r.ServeRate, r.Revenue / 100, r.AvgProfit, r.Gini}
		for i := range vals {
			fig.Series[i].X = append(fig.Series[i].X, x)
			fig.Series[i].Y = append(fig.Series[i].Y, vals[i])
		}
	}
	return fig
}

// DispatchRow is one strategy's outcome in the dispatch comparison.
type DispatchRow struct {
	Name      string
	Profit    float64
	Revenue   float64
	ServeRate float64
	Ratio     float64 // profit / Z*_f estimate
}

// DispatchComparison runs every dispatch strategy in the framework on
// one market and reports profits against the relaxation bound: the
// paper's two heuristics, the batched matcher, rolling-horizon
// re-optimization, and the offline greedy as the full-information
// reference.
func DispatchComparison(ctx context.Context, cfg Config, drivers int) ([]DispatchRow, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := buildProblem(cfg, cfg.Seed, drivers, trace.Hitchhiking)
	if err != nil {
		return nil, err
	}
	greedySol, err := core.GreedySolver{}.Solve(p)
	if err != nil {
		return nil, err
	}
	ub, _ := bound.Auto(p.Graph(), greedySol.Profit, cfg.BoundIters)
	eng, err := sim.New(p.Market, p.Drivers, cfg.Seed)
	if err != nil {
		return nil, err
	}

	mTasks := float64(len(p.Tasks))
	row := func(name string, profit, revenue float64, served int) DispatchRow {
		return DispatchRow{
			Name: name, Profit: profit, Revenue: revenue,
			ServeRate: float64(served) / mTasks,
			Ratio:     core.PerformanceRatio(profit, ub.Bound),
		}
	}

	nearest := eng.RunScenario(p.Tasks, nil, online.Nearest{})
	maxMargin := eng.RunScenario(p.Tasks, nil, online.MaxMargin{})
	batched := eng.RunBatchedScenario(p.Tasks, nil, 30)
	replan := eng.RunReplanScenario(p.Tasks, nil, 120)

	return []DispatchRow{
		row("Nearest (Alg. 3)", nearest.TotalProfit, nearest.Revenue, nearest.Served),
		row("maxMargin (Alg. 4)", maxMargin.TotalProfit, maxMargin.Revenue, maxMargin.Served),
		row("batched matching", batched.TotalProfit, batched.Revenue, batched.Served),
		row("rolling replan", replan.TotalProfit, replan.Revenue, replan.Served),
		row("offline Greedy (Alg. 1)", greedySol.Profit, greedySol.Revenue, greedySol.Served),
	}, nil
}

// ChurnRow is one churn rate's outcome in the churn/cancellation study.
type ChurnRow struct {
	Rate      float64 // retirement and cancellation fraction applied
	ServeRate float64 // served / published tasks
	Cancelled float64 // mean cancellations honored per day
	Profit    float64 // drivers' total profit
	Revenue   float64
}

// ChurnSweep runs the driver-churn and rider-cancellation workload: for
// each rate r, a fraction r of drivers retires early, a fraction r of
// riders cancels between publish and pickup, and r/2 of the fleet is
// announced mid-day rather than upfront (a joiner cannot be
// pre-assigned demand published before her announcement, so all three
// knobs shrink what the dispatcher can do). Each rate averages over
// cfg.Replications consecutive seeds and every (rate, seed) point runs
// concurrently on cfg.Workers workers, simulated with maxMargin
// dispatch on the event-driven engine.
//
// Rate 0 reproduces the static Figs 6–9 market exactly, which anchors
// the curves: everything the sweep shows beyond the first point is
// dynamics the paper's evaluation never reached.
func ChurnSweep(ctx context.Context, cfg Config, drivers int, rates []float64) ([]ChurnRow, error) {
	reps := cfg.replications()
	type point struct {
		served, cancelled int
		profit, revenue   float64
	}
	pts := make([]point, len(rates)*reps)
	err := forEachIndex(ctx, cfg.Workers, len(pts), func(k int) error {
		rate, seed := rates[k/reps], cfg.Seed+int64(k%reps)
		tcfg := trace.NewConfig(seed, cfg.Tasks, drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(tcfg).Generate(nil)
		events := trace.WithChurn(tr, trace.DefaultChurn(seed, rate, rate))
		eng, err := sim.New(tcfg.Market, tr.Drivers, seed)
		if err != nil {
			return err
		}
		res := eng.RunScenario(tr.Tasks, events, online.MaxMargin{})
		pts[k] = point{res.Served, res.Cancelled, res.TotalProfit, res.Revenue}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ChurnRow, len(rates))
	for ri, rate := range rates {
		row := ChurnRow{Rate: rate}
		for r := 0; r < reps; r++ {
			p := pts[ri*reps+r]
			row.ServeRate += float64(p.served)
			row.Cancelled += float64(p.cancelled)
			row.Profit += p.profit
			row.Revenue += p.revenue
		}
		row.ServeRate /= float64(reps * cfg.Tasks)
		row.Cancelled /= float64(reps)
		row.Profit /= float64(reps)
		row.Revenue /= float64(reps)
		rows[ri] = row
	}
	return rows, nil
}

// ChurnFigure renders the churn study: serve rate and profit (relative
// to the churn-free day) as the churn/cancellation rate rises.
func ChurnFigure(rows []ChurnRow) Figure {
	fig := Figure{
		ID:     "ext-churn",
		Title:  "Driver churn and rider cancellations",
		XLabel: "churn / cancellation rate", YLabel: "fraction of the static day",
		Series: make([]Series, 3),
	}
	fig.Series[0].Name = "serve rate"
	fig.Series[1].Name = "profit / no-churn profit"
	fig.Series[2].Name = "cancelled (count)"
	base := 1.0
	if len(rows) > 0 && rows[0].Profit != 0 {
		base = rows[0].Profit
	}
	for _, r := range rows {
		fig.Series[0].X = append(fig.Series[0].X, r.Rate)
		fig.Series[0].Y = append(fig.Series[0].Y, r.ServeRate)
		fig.Series[1].X = append(fig.Series[1].X, r.Rate)
		fig.Series[1].Y = append(fig.Series[1].Y, r.Profit/base)
		fig.Series[2].X = append(fig.Series[2].X, r.Rate)
		fig.Series[2].Y = append(fig.Series[2].Y, r.Cancelled)
	}
	fig.Notes = "rate 0 = the static-fleet market of Figs 6-9; cancelled series is absolute counts"
	return fig
}
