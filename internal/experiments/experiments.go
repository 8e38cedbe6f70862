// Package experiments regenerates every figure of the paper's evaluation
// (§VI): the trace distribution plots (Figs 3–4), the performance-ratio
// comparison against the LP-relaxation bound for both working models
// (Fig 5), and the market-density study (Figs 6–9). Each figure is
// returned as named series ready for text rendering or plotting; the
// bench harness in the repository root and the `rideshare experiments`
// command both drive this package.
//
// Scale: the paper sweeps 20–300 drivers against 1000 tasks of one day of
// the Porto trace. The default Config here is a proportionally scaled-down
// sweep that completes in benchmark time; pass Paper() for the full-scale
// parameters. Shapes (who wins, monotonicity, crossovers), not absolute
// values, are the reproduction target — see EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"text/tabwriter"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config parameterizes an experiment run.
type Config struct {
	Seed  int64
	Tasks int   // tasks per day
	Sweep []int // driver counts for Figs 5–9

	// BoundIters bounds the Lagrangian subgradient refinement used when
	// the instance is too large for exact column generation.
	BoundIters int

	// DistSamples is the trip count used for the distribution figures.
	DistSamples int

	// Workers bounds the number of concurrent workers evaluating sweep
	// points; 0 means one per CPU core. Every (density, seed) point owns
	// its generator, engine and RNG, so the series are identical for any
	// worker count.
	Workers int

	// Replications averages each sweep point of Fig. 5 and the density
	// study over this many consecutive seeds (Seed, Seed+1, …); 0 or 1
	// reproduces the single-seed sweep.
	Replications int
}

// replications normalizes the Replications field.
func (c Config) replications() int {
	if c.Replications < 1 {
		return 1
	}
	return c.Replications
}

// Default returns the benchmark-scale configuration: 250 tasks and a
// 10–120 driver sweep (the paper's 1000 tasks / 20–300 drivers, scaled
// by 1/4 with the same demand:supply range).
func Default() Config {
	return Config{
		Seed:        1,
		Tasks:       250,
		Sweep:       []int{10, 20, 30, 45, 60, 75, 90, 105, 120},
		BoundIters:  120,
		DistSamples: 20000,
	}
}

// Paper returns the full-scale configuration matching §VI-A: 1000 tasks
// of one day and 20–300 drivers.
func Paper() Config {
	return Config{
		Seed:        1,
		Tasks:       1000,
		Sweep:       []int{20, 60, 100, 140, 180, 220, 260, 300},
		BoundIters:  150,
		DistSamples: 100000,
	}
}

// Series is one named curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is one reproduced evaluation figure.
type Figure struct {
	ID     string // "fig3" … "fig9"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  string
}

// Fig3TravelTime reproduces Fig. 3: the distribution of trip travel
// times, rendered as a log-binned density with its power-law fit.
func Fig3TravelTime(cfg Config) Figure {
	times := sampleTrips(cfg, func(distKm, durSec float64) float64 { return durSec / 60 })
	return distributionFigure(cfg, "fig3", "Travel Time Distribution", "travel time (min)", times)
}

// Fig4TravelDistance reproduces Fig. 4: the distribution of trip travel
// distances.
func Fig4TravelDistance(cfg Config) Figure {
	dists := sampleTrips(cfg, func(distKm, durSec float64) float64 { return distKm })
	return distributionFigure(cfg, "fig4", "Travel Distance Distribution", "travel distance (km)", dists)
}

func sampleTrips(cfg Config, pick func(distKm, durSec float64) float64) []float64 {
	tcfg := trace.NewConfig(cfg.Seed, cfg.DistSamples, 1, trace.Hitchhiking)
	gen := trace.NewGenerator(tcfg)
	tasks := gen.GenerateTasks()
	out := make([]float64, 0, len(tasks))
	for _, tk := range tasks {
		d := tcfg.Market.Dist(tk.Source, tk.Dest)
		dur := tcfg.Market.TravelTime(tk.Source, tk.Dest, 0)
		out = append(out, pick(d, dur))
	}
	return out
}

func distributionFigure(cfg Config, id, title, xlabel string, xs []float64) Figure {
	bins := stats.LogHistogram(xs, 24)
	var sx, sy []float64
	for _, b := range bins {
		if b.Count == 0 {
			continue
		}
		sx = append(sx, (b.Lo+b.Hi)/2)
		sy = append(sy, b.Density)
	}
	fig := Figure{
		ID: id, Title: title,
		XLabel: xlabel, YLabel: "density",
		Series: []Series{{Name: "empirical", X: sx, Y: sy}},
	}
	sum := stats.Summarize(xs)
	notes := fmt.Sprintf("n=%d mean=%.2f p50=%.2f p99=%.2f tail-heaviness=%.2f",
		sum.N, sum.Mean, sum.P50, sum.P99, stats.TailHeaviness(xs))
	if fit, err := stats.FitPowerLaw(xs, sum.P50); err == nil {
		notes += fmt.Sprintf(" power-law pdf exponent=%.2f (xmin=p50)", fit.Alpha)
	}
	fig.Notes = notes
	return fig
}

// Fig5PerformanceRatio reproduces Fig. 5 for the given working model:
// the performance ratio (algorithm profit / upper bound Z*_f) of Greedy,
// maxMargin and Nearest as the number of drivers grows. The paper plots
// Z*_f / profit; we plot the reciprocal so curves live in [0, 1] with
// higher = better (same ordering information).
func Fig5PerformanceRatio(ctx context.Context, cfg Config, dm trace.DriverModel) (Figure, error) {
	names := []string{"Greedy", "maxMargin", "Nearest"}
	series := make([]Series, len(names))
	for i, name := range names {
		series[i] = Series{Name: name}
	}

	// Fan the (density, seed) grid out over the worker pool; ratios[k]
	// belongs to sweep point k/reps, replication k%reps.
	reps := cfg.replications()
	ratios := make([][3]float64, len(cfg.Sweep)*reps)
	var fallbacks atomic.Int64
	err := forEachIndex(ctx, cfg.Workers, len(ratios), func(k int) error {
		n, seed := cfg.Sweep[k/reps], cfg.Seed+int64(k%reps)
		p, err := buildProblem(cfg, seed, n, dm)
		if err != nil {
			return err
		}
		sols, err := solveAll(p, seed)
		if err != nil {
			return err
		}
		ub, fellBack := bound.Auto(p.Graph(), sols[0].Profit, cfg.BoundIters)
		if fellBack {
			fallbacks.Add(1)
		}
		for i := range names {
			ratios[k][i] = core.PerformanceRatio(sols[i].Profit, ub.Bound)
		}
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	for pi, n := range cfg.Sweep {
		for i := range names {
			var sum float64
			for r := 0; r < reps; r++ {
				sum += ratios[pi*reps+r][i]
			}
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, sum/float64(reps))
		}
	}
	return Figure{
		ID:     "fig5-" + dm.String(),
		Title:  fmt.Sprintf("Performance Ratio (%v model)", dm),
		XLabel: "number of drivers", YLabel: "profit / Z*_f",
		Series: series,
		Notes: fmt.Sprintf("%d tasks; %d replication(s); bound: colgen (small) / Lagrangian %d iters (large); colgen-fallbacks=%d",
			cfg.Tasks, reps, cfg.BoundIters, fallbacks.Load()),
	}, nil
}

// DensityMetrics bundles the market-density sweep behind Figs 6–9 so the
// four figures share one set of simulation runs.
type DensityMetrics struct {
	Drivers []int
	// Indexed [algorithm][sweep point]; algorithm order matches Names.
	Revenue   [][]float64 // Fig 6: total market revenue
	ServeRate [][]float64 // Fig 7: fraction of tasks served
	AvgRev    [][]float64 // Fig 8: average revenue per driver
	AvgTasks  [][]float64 // Fig 9: average tasks per driver
	Names     []string
}

// RunDensitySweep executes the Figs 6–9 sweep on the hitchhiking model
// (the paper's §VI-C uses "the general hitchhiking model"). The
// (density, seed) points run concurrently on cfg.Workers workers; each
// point owns its trace generator and simulation engines, so the returned
// series are identical for any worker count.
func RunDensitySweep(ctx context.Context, cfg Config) (DensityMetrics, error) {
	names := []string{"Greedy", "maxMargin", "Nearest"}
	m := DensityMetrics{
		Names:     names,
		Revenue:   make([][]float64, len(names)),
		ServeRate: make([][]float64, len(names)),
		AvgRev:    make([][]float64, len(names)),
		AvgTasks:  make([][]float64, len(names)),
	}
	reps := cfg.replications()
	type point struct {
		revenue, served [3]float64
	}
	pts := make([]point, len(cfg.Sweep)*reps)
	err := forEachIndex(ctx, cfg.Workers, len(pts), func(k int) error {
		n, seed := cfg.Sweep[k/reps], cfg.Seed+int64(k%reps)
		p, err := buildProblem(cfg, seed, n, trace.Hitchhiking)
		if err != nil {
			return err
		}
		sols, err := solveAll(p, seed)
		if err != nil {
			return err
		}
		for i, s := range sols {
			pts[k].revenue[i] = s.Revenue
			pts[k].served[i] = float64(s.Served)
		}
		return nil
	})
	if err != nil {
		return DensityMetrics{}, err
	}
	for pi, n := range cfg.Sweep {
		m.Drivers = append(m.Drivers, n)
		for i := range names {
			var revenue, served float64
			for r := 0; r < reps; r++ {
				revenue += pts[pi*reps+r].revenue[i]
				served += pts[pi*reps+r].served[i]
			}
			revenue /= float64(reps)
			served /= float64(reps)
			m.Revenue[i] = append(m.Revenue[i], revenue)
			m.ServeRate[i] = append(m.ServeRate[i], served/float64(cfg.Tasks))
			m.AvgRev[i] = append(m.AvgRev[i], revenue/float64(n))
			m.AvgTasks[i] = append(m.AvgTasks[i], served/float64(n))
		}
	}
	return m, nil
}

// Figures converts the sweep into the paper's four density figures.
func (m DensityMetrics) Figures() []Figure {
	mk := func(id, title, ylabel string, data [][]float64) Figure {
		fig := Figure{ID: id, Title: title, XLabel: "number of drivers", YLabel: ylabel}
		for i, name := range m.Names {
			xs := make([]float64, len(m.Drivers))
			for j, d := range m.Drivers {
				xs[j] = float64(d)
			}
			fig.Series = append(fig.Series, Series{Name: name, X: xs, Y: data[i]})
		}
		return fig
	}
	return []Figure{
		mk("fig6", "Total Revenue in the Market", "total revenue", m.Revenue),
		mk("fig7", "Rate of Served Tasks", "serve rate", m.ServeRate),
		mk("fig8", "Average Revenue per Worker", "avg revenue / driver", m.AvgRev),
		mk("fig9", "Average Tasks per Worker", "avg tasks / driver", m.AvgTasks),
	}
}

// buildProblem generates the trace for one (seed, density) sweep point.
// The task set is held fixed across driver counts (same seed), as in the
// paper: "We select 1000 records during one day ... by gradually
// increasing the number of drivers".
func buildProblem(cfg Config, seed int64, drivers int, dm trace.DriverModel) (*core.Problem, error) {
	tcfg := trace.NewConfig(seed, cfg.Tasks, drivers, dm)
	tr := trace.NewGenerator(tcfg).Generate(nil)
	return core.NewProblem(tcfg.Market, tr.Drivers, tr.Tasks)
}

// solveAll runs the three algorithms of Fig. 5 in the canonical order
// Greedy, maxMargin, Nearest.
func solveAll(p *core.Problem, seed int64) ([]core.Solution, error) {
	solvers := []core.Solver{
		core.GreedySolver{},
		core.OnlineSolver{Dispatcher: online.MaxMargin{}, Seed: seed},
		core.OnlineSolver{Dispatcher: online.Nearest{}, Seed: seed},
	}
	out := make([]core.Solution, len(solvers))
	for i, s := range solvers {
		sol, err := s.Solve(p)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.Name(), err)
		}
		out[i] = sol
	}
	return out, nil
}

// RenderText writes the figure as an aligned text table, one row per X
// value and one column per series.
func RenderText(w io.Writer, fig Figure) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s — %s\n", fig.ID, fig.Title)
	if fig.Notes != "" {
		fmt.Fprintf(tw, "# %s\n", fig.Notes)
	}
	fmt.Fprintf(tw, "%s", fig.XLabel)
	for _, s := range fig.Series {
		fmt.Fprintf(tw, "\t%s", s.Name)
	}
	fmt.Fprintln(tw)

	if len(fig.Series) > 0 {
		for j := range fig.Series[0].X {
			fmt.Fprintf(tw, "%.4g", fig.Series[0].X[j])
			for _, s := range fig.Series {
				if j < len(s.Y) {
					fmt.Fprintf(tw, "\t%.4f", s.Y[j])
				} else {
					fmt.Fprintf(tw, "\t-")
				}
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}
