package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
)

// checkPositive rejects non-positive values for flags where zero or a
// negative count would silently misbehave (or panic) deep inside the
// engine instead of failing at the boundary.
func checkPositive(cmd string, vals map[string]int) error {
	for _, name := range []string{"-workers", "-reps", "-tasks", "-drivers"} {
		if v, ok := vals[name]; ok && v < 1 {
			return fmt.Errorf("%s: %s must be ≥ 1, got %d", cmd, name, v)
		}
	}
	return nil
}

// checkBatchWindow rejects unusable batch-window flag values at the
// CLI boundary: negative, NaN or infinite windows would otherwise
// surface as a typed error from the dispatch options (or, through the
// internal sim entry points, as a panic). Zero is allowed and means
// instant dispatch.
func checkBatchWindow(cmd string, w float64) error {
	if !(w >= 0) || math.IsInf(w, 1) {
		return fmt.Errorf("%s: -batch-window must be a non-negative finite number of seconds, got %g", cmd, w)
	}
	return nil
}

// explicitFlag names, dash included, one of the given flags that the
// command line set explicitly ("" when it set none): a flag that the
// chosen mode never consults is rejected instead of silently ignored.
func explicitFlag(fs *flag.FlagSet, names ...string) string {
	set := ""
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = "-" + f.Name
		}
	})
	return set
}

// checkAlgoUnused is that rule for serve and router with a batch
// window: a batched market clears windows with a matching and never
// consults the instant-dispatch policy.
func checkAlgoUnused(cmd string, fs *flag.FlagSet, window float64) error {
	if window > 0 && explicitFlag(fs, "algo") != "" {
		return fmt.Errorf("%s: -algo selects the instant-dispatch policy and is not consulted with -batch-window (drop one flag)", cmd)
	}
	return nil
}

// checkFraction rejects rate flags outside [0, 1].
func checkFraction(cmd string, vals map[string]float64) error {
	for name, v := range vals {
		if v < 0 || v > 1 {
			return fmt.Errorf("%s: %s must be in [0,1], got %g", cmd, name, v)
		}
	}
	return nil
}

func parseModel(s string) (trace.DriverModel, error) {
	switch strings.ToLower(s) {
	case "hitchhiking", "hitch":
		return trace.Hitchhiking, nil
	case "home", "home-work-home", "homeworkhome":
		return trace.HomeWorkHome, nil
	default:
		return 0, fmt.Errorf("unknown driver model %q (want hitchhiking or home)", s)
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	tasks := fs.Int("tasks", 250, "number of customer tasks")
	drivers := fs.Int("drivers", 50, "number of drivers")
	modelName := fs.String("model", "hitchhiking", "driver model: hitchhiking or home")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "output file (default stdout); .json or .csv prefix pair")
	churn := fs.Float64("churn", 0, "driver churn rate: this fraction retires early and half joins mid-day")
	cancel := fs.Float64("cancel", 0, "fraction of tasks cancelled by their rider before pickup")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkPositive("gen", map[string]int{"-tasks": *tasks, "-drivers": *drivers}); err != nil {
		return err
	}
	if err := checkFraction("gen", map[string]float64{"-churn": *churn, "-cancel": *cancel}); err != nil {
		return err
	}
	dm, err := parseModel(*modelName)
	if err != nil {
		return err
	}
	cfg := trace.NewConfig(*seed, *tasks, *drivers, dm)
	tr := trace.NewGenerator(cfg).Generate(nil)
	if *churn > 0 || *cancel > 0 {
		tr.Events = trace.WithChurn(tr, trace.DefaultChurn(*seed, *churn, *cancel))
	}

	if *out == "" {
		return model.WriteTraceJSON(os.Stdout, tr)
	}
	if strings.HasSuffix(*out, ".json") {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := model.WriteTraceJSON(f, tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d drivers, %d tasks)\n", *out, len(tr.Drivers), len(tr.Tasks))
		return f.Close()
	}
	// CSV pair: <out>_drivers.csv and <out>_tasks.csv.
	if len(tr.Events) > 0 {
		fmt.Fprintln(os.Stderr, "gen: warning: the CSV format carries no churn/cancel events; use a .json output to keep them")
	}
	base := strings.TrimSuffix(*out, ".csv")
	df, err := os.Create(base + "_drivers.csv")
	if err != nil {
		return err
	}
	defer df.Close()
	if err := model.WriteDriversCSV(df, tr.Drivers); err != nil {
		return err
	}
	tf, err := os.Create(base + "_tasks.csv")
	if err != nil {
		return err
	}
	defer tf.Close()
	if err := model.WriteTasksCSV(tf, tr.Tasks); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s_drivers.csv and %s_tasks.csv\n", base, base)
	return nil
}

func loadTrace(path string) (model.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return model.Trace{}, err
	}
	defer f.Close()
	return model.ReadTraceJSON(f)
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace JSON file (required)")
	withBound := fs.Bool("bound", false, "also compute the Z*_f upper bound and performance ratio")
	verbose := fs.Bool("v", false, "print each selected task list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("solve: -trace is required")
	}
	tr, err := loadTrace(*tracePath)
	if err != nil {
		return err
	}
	p, err := core.NewProblem(model.DefaultMarket(), tr.Drivers, tr.Tasks)
	if err != nil {
		return err
	}
	sol, err := core.GreedySolver{}.Solve(p)
	if err != nil {
		return err
	}
	g := p.Graph()
	fmt.Printf("algorithm       %s\n", sol.Algorithm)
	fmt.Printf("drivers         %d\n", len(p.Drivers))
	fmt.Printf("tasks           %d\n", len(p.Tasks))
	fmt.Printf("task-map arcs   %d (diameter %d)\n", g.SharedArcs(), g.Diameter())
	fmt.Printf("served          %d (%.1f%%)\n", sol.Served, 100*float64(sol.Served)/float64(len(p.Tasks)))
	fmt.Printf("revenue         %.2f\n", sol.Revenue)
	fmt.Printf("drivers' profit %.2f\n", sol.Profit)
	fmt.Printf("social welfare  %.2f\n", sol.Welfare(p))
	if *withBound {
		ub, _ := bound.Auto(g, sol.Profit, 120)
		fmt.Printf("upper bound     %.2f (%s)\n", ub.Bound, ub.Method)
		fmt.Printf("perf ratio      %.4f\n", core.PerformanceRatio(sol.Profit, ub.Bound))
	}
	if *verbose {
		for _, path := range sol.Paths {
			fmt.Printf("driver %4d  profit %8.2f  tasks %v\n", path.Driver, path.Profit, path.Tasks)
		}
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace JSON file (required)")
	algo := fs.String("algo", "maxmargin", "dispatcher: maxmargin, nearest, random, batched or replan")
	byValue := fs.Bool("byvalue", false, "process tasks by descending price (offline variant)")
	realTime := fs.Bool("realtime", false, "free drivers at real finish times instead of deadlines")
	batchWindow := fs.Float64("batchwindow", 30, "batch window in seconds (batched dispatcher only)")
	// Alias matching the serve/router spelling.
	fs.Float64Var(batchWindow, "batch-window", 30, "alias for -batchwindow")
	replanPeriod := fs.Float64("replanperiod", 60, "flush period in seconds (replan dispatcher only)")
	seed := fs.Int64("seed", 1, "random seed for tie-breaking")
	churn := fs.Float64("churn", 0, "override the trace's events: this fraction of drivers retires early (half also joins mid-day)")
	cancel := fs.Float64("cancel", 0, "override the trace's events: this fraction of tasks is cancelled before pickup")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFraction("simulate", map[string]float64{"-churn": *churn, "-cancel": *cancel}); err != nil {
		return err
	}
	mode := strings.ToLower(*algo)
	if *byValue && (mode == "batched" || mode == "replan") {
		// Both run the day in time order; the flag would be silently
		// ignored — reject it instead.
		return fmt.Errorf("simulate: -byvalue processes tasks by descending price and is not consulted with -algo %s, which runs the day in time order (drop one flag)", mode)
	}
	// The engine treats a non-positive or non-finite window or period
	// as an internal invariant violation (it panics); the flag boundary
	// turns bad user input into a normal error instead — and rejects
	// either flag under a dispatcher that never reads it.
	if mode == "batched" {
		if !(*batchWindow > 0) || math.IsInf(*batchWindow, 1) {
			return fmt.Errorf("simulate: -batchwindow must be a positive finite number of seconds, got %g", *batchWindow)
		}
	} else if set := explicitFlag(fs, "batchwindow", "batch-window"); set != "" {
		return fmt.Errorf("simulate: %s is the batched dispatcher's window and is not consulted with -algo %s (drop one flag)", set, mode)
	}
	if mode == "replan" {
		if !(*replanPeriod > 0) || math.IsInf(*replanPeriod, 1) {
			return fmt.Errorf("simulate: -replanperiod must be a positive finite number of seconds, got %g", *replanPeriod)
		}
	} else if explicitFlag(fs, "replanperiod") != "" {
		return fmt.Errorf("simulate: -replanperiod is the replan dispatcher's flush period and is not consulted with -algo %s (drop one flag)", mode)
	}
	if *tracePath == "" {
		return fmt.Errorf("simulate: -trace is required")
	}
	tr, err := loadTrace(*tracePath)
	if err != nil {
		return err
	}
	events := tr.Events
	if *churn > 0 || *cancel > 0 {
		events = trace.WithChurn(tr, trace.DefaultChurn(*seed, *churn, *cancel))
	}
	if err := model.ValidateEvents(events, tr.Drivers, tr.Tasks); err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	eng, err := sim.New(model.DefaultMarket(), tr.Drivers, *seed)
	if err != nil {
		return err
	}
	eng.RealTime = *realTime

	var res sim.Result
	name := ""
	switch mode {
	case "batched":
		res = eng.RunBatchedScenario(tr.Tasks, events, *batchWindow)
		name = fmt.Sprintf("%v window=%gs", sim.BatchHungarian, *batchWindow)
	case "replan":
		res = eng.RunReplanScenario(tr.Tasks, events, *replanPeriod)
		name = fmt.Sprintf("replan period=%gs", *replanPeriod)
	default:
		var d sim.Dispatcher
		switch mode {
		case "maxmargin":
			d = online.MaxMargin{}
		case "nearest":
			d = online.Nearest{}
		case "random":
			d = online.Random{}
		default:
			return fmt.Errorf("simulate: unknown dispatcher %q", *algo)
		}
		if *byValue {
			if len(events) > 0 {
				return fmt.Errorf("simulate: -byvalue processes tasks out of time order and cannot replay churn/cancel events")
			}
			res = eng.RunByValue(tr.Tasks, d)
		} else {
			res = eng.RunScenario(tr.Tasks, events, d)
		}
		name = d.Name()
	}
	fmt.Printf("dispatcher        %s\n", name)
	fmt.Printf("served            %d / %d (%.1f%%)\n", res.Served, res.Served+res.Rejected, 100*res.ServeRate())
	if len(events) > 0 {
		fmt.Printf("events            %d (cancelled before pickup: %d)\n", len(events), res.Cancelled)
	}
	fmt.Printf("revenue           %.2f\n", res.Revenue)
	fmt.Printf("drivers' profit   %.2f\n", res.TotalProfit)
	fmt.Printf("avg revenue/drv   %.2f\n", res.AvgRevenuePerDriver())
	fmt.Printf("avg tasks/drv     %.2f\n", res.AvgTasksPerDriver())
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 3-9, welfare, surge, dispatch, churn, regret, or all")
	scale := fs.String("scale", "bench", "bench (scaled-down, fast) or paper (full §VI scale)")
	seed := fs.Int64("seed", 1, "trace seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent sweep workers")
	reps := fs.Int("reps", 1, "replications averaged per sweep point (consecutive seeds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkPositive("experiments", map[string]int{"-workers": *workers, "-reps": *reps}); err != nil {
		return err
	}
	var cfg experiments.Config
	switch *scale {
	case "bench":
		cfg = experiments.Default()
	case "paper":
		cfg = experiments.Paper()
	default:
		return fmt.Errorf("experiments: unknown scale %q", *scale)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Replications = *reps
	// Sweeps can run for minutes at paper scale; a SIGINT aborts the
	// worker pool promptly instead of grinding through remaining points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runExperiments(ctx, os.Stdout, cfg, *fig)
}

func runExperiments(ctx context.Context, w io.Writer, cfg experiments.Config, fig string) error {
	want := func(id string) bool { return fig == "all" || fig == id }

	if want("3") {
		if err := experiments.RenderText(w, experiments.Fig3TravelTime(cfg)); err != nil {
			return err
		}
	}
	if want("4") {
		if err := experiments.RenderText(w, experiments.Fig4TravelDistance(cfg)); err != nil {
			return err
		}
	}
	if want("5") {
		for _, dm := range []trace.DriverModel{trace.Hitchhiking, trace.HomeWorkHome} {
			f, err := experiments.Fig5PerformanceRatio(ctx, cfg, dm)
			if err != nil {
				return err
			}
			if err := experiments.RenderText(w, f); err != nil {
				return err
			}
		}
	}
	if want("6") || want("7") || want("8") || want("9") {
		m, err := experiments.RunDensitySweep(ctx, cfg)
		if err != nil {
			return err
		}
		for _, f := range m.Figures() {
			if !want(strings.TrimPrefix(f.ID, "fig")) {
				continue
			}
			if err := experiments.RenderText(w, f); err != nil {
				return err
			}
		}
	}
	if want("welfare") {
		rows, err := experiments.WelfareComparison(ctx, cfg)
		if err != nil {
			return err
		}
		if err := experiments.RenderText(w, experiments.WelfareFigure(rows)); err != nil {
			return err
		}
	}
	if want("surge") {
		mid := cfg.Sweep[len(cfg.Sweep)/2]
		rows, err := experiments.SurgeSweep(ctx, cfg, mid, []float64{1, 1.25, 1.5, 2, 2.5, 3})
		if err != nil {
			return err
		}
		if err := experiments.RenderText(w, experiments.SurgeFigure(rows)); err != nil {
			return err
		}
	}
	if want("churn") {
		mid := cfg.Sweep[len(cfg.Sweep)/2]
		rows, err := experiments.ChurnSweep(ctx, cfg, mid, []float64{0, 0.1, 0.2, 0.35, 0.5, 0.75})
		if err != nil {
			return err
		}
		if err := experiments.RenderText(w, experiments.ChurnFigure(rows)); err != nil {
			return err
		}
	}
	if want("regret") {
		rcfg, rc := experiments.RegretBench(cfg)
		points, err := experiments.RegretSweep(ctx, rcfg, rc)
		if err != nil {
			return err
		}
		if err := experiments.RenderText(w, experiments.RegretFigure(points, rcfg, rc)); err != nil {
			return err
		}
	}
	if want("dispatch") {
		mid := cfg.Sweep[len(cfg.Sweep)/2]
		rows, err := experiments.DispatchComparison(ctx, cfg, mid)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# ext-dispatch — Dispatch strategies vs the relaxation bound (%d drivers)\n", mid)
		for _, r := range rows {
			fmt.Fprintf(w, "%-24s profit %8.2f  revenue %8.2f  serve %5.1f%%  ratio %.4f\n",
				r.Name, r.Profit, r.Revenue, 100*r.ServeRate, r.Ratio)
		}
	}
	return nil
}

func cmdTightness(args []string) error {
	fs := flag.NewFlagSet("tightness", flag.ContinueOnError)
	d := fs.Int("d", 5, "task-map diameter D of the adversarial instance")
	eps := fs.Float64("eps", 0.01, "profit gap ε of the adversarial instance")
	maxPaths := fs.Int("max-paths", 200000, "per-driver path cap for the exact solve")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxPaths <= 0 {
		return fmt.Errorf("tightness: -max-paths must be ≥ 1, got %d", *maxPaths)
	}
	mkt, drivers, tasks, err := offline.TightnessInstance(*d, *eps)
	if err != nil {
		return err
	}
	in, err := offline.Compile(mkt, model.Trace{Drivers: drivers, Tasks: tasks}, offline.Options{})
	if err != nil {
		return err
	}
	ga := offline.Greedy(in)
	// The instance is one component, which the sparse solver enumerates
	// whole: its optimum is exact unless a cap stopped it.
	var solver bound.SparseSolver
	exact, err := solver.Solve(in, bound.SparseOptions{PathCap: *maxPaths})
	if err != nil {
		return err
	}
	if !exact.Exact {
		return fmt.Errorf("tightness: instance too large to solve exactly at D=%d; lower -d or raise -max-paths", *d)
	}
	fmt.Printf("Fig. 2 adversarial instance: D=%d, ε=%g\n", *d, *eps)
	fmt.Printf("greedy (GA) profit  %.6f\n", ga.TotalProfit)
	fmt.Printf("optimal profit      %.6f  (= (D+1)(1−ε) = %.6f)\n",
		exact.Objective, float64(*d+1)*(1-*eps))
	fmt.Printf("GA / OPT            %.6f\n", ga.TotalProfit/exact.Objective)
	fmt.Printf("1/(D+1) bound       %.6f  (Theorem 1: the bound is tight)\n", 1/float64(*d+1))
	return nil
}
