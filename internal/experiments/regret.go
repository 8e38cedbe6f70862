package experiments

// The oracle-rail study: how much revenue did each online policy leave
// on the table against a clairvoyant dispatcher on the same day? For
// every density the two policies (instant maxMargin, batched
// Hungarian windows) run over an identical churn/cancellation trace; the trace is then compiled once into a hindsight instance
// (revenue objective, rail pruning, every policy's own assignments
// force-kept so the rail stays at or above all of them) and solved by
// the sparse branch and bound, warm-started from the best policy.
//
// The rail optimum is a lower bound on the true hindsight optimum, so
// the reported competitive ratios are upper bounds on the policies'
// true ratios — the forced pairs keep every ratio ≤ 1. Where the solve
// is inexact the rail optimum is itself only bracketed, between the
// incumbent and the solver's upper bound, and so is each ratio: online ÷
// upper bound below, online ÷ incumbent above.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/bound"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RegretPolicies names the online policies of the study, in row order.
var RegretPolicies = []string{"maxMargin", "batched(hungarian)"}

// RegretRow is one (policy, density) cell of the study.
type RegretRow struct {
	Policy  string `json:"policy"`
	Drivers int    `json:"drivers"`

	OnlineRevenue  float64 `json:"online_revenue"`
	OfflineRevenue float64 `json:"offline_revenue"`
	OnlineServed   int     `json:"online_served"`
	OfflineServed  int     `json:"offline_served"`

	RevenueRegret    float64 `json:"revenue_regret"`    // offline − online
	CompetitiveRatio float64 `json:"competitive_ratio"` // online / offline, ∈ (0, 1]

	// CompetitiveRatioLow is online / Oracle.UpperBound, the lower end of
	// the bracket whose upper end is CompetitiveRatio; the two are equal
	// when the oracle solve is exact.
	CompetitiveRatioLow float64 `json:"competitive_ratio_low"`
}

// RegretPoint bundles one density's shared oracle solve.
type RegretPoint struct {
	Drivers int          `json:"drivers"`
	Rows    []RegretRow  `json:"rows"`
	Oracle  RegretOracle `json:"oracle"`
}

// RegretOracle records how the hindsight optimum was obtained.
type RegretOracle struct {
	CompileSeconds  float64 `json:"compile_seconds"`
	SolveSeconds    float64 `json:"solve_seconds"`
	Exact           bool    `json:"exact"`
	Components      int     `json:"components"`
	ExactComponents int     `json:"exact_components"`
	Pairs           int     `json:"pairs"`
	Arcs            int     `json:"arcs"`
	Nodes           int64   `json:"nodes"`
	UpperBound      float64 `json:"upper_bound"`
	WarmKept        int     `json:"warm_kept"`
	WarmDropped     int     `json:"warm_dropped"`
	LPSolved        int     `json:"lp_solved"`
	LPFixed         int     `json:"lp_fixed"`
}

// RegretConfig parameterizes RegretSweep beyond the base Config.
type RegretConfig struct {
	// Churn and Cancel are the trace.DefaultChurn fractions of drivers
	// joining/retiring mid-day and riders cancelling.
	Churn  float64
	Cancel float64

	// Window is the batched policies' dispatch window in seconds
	// (default 45).
	Window float64

	// TopK is the rail pruning width of the hindsight compile (default
	// 8; 0 compiles the exact instance — only viable on small days).
	TopK int

	// Solver knobs, passed through to bound.SparseOptions.
	LP      bool
	NodeCap int
}

// RegretBench returns the study as `rideshare experiments -fig regret`
// runs it: cfg's sweep cut to three densities (sparse, mid, dense),
// which keeps the oracle solves affordable under -fig all, and a day
// with churn 0.25, cancellations 0.2, rail width 8 and LP fixing.
func RegretBench(cfg Config) (Config, RegretConfig) {
	cfg.Sweep = []int{cfg.Sweep[0], cfg.Sweep[len(cfg.Sweep)/2], cfg.Sweep[len(cfg.Sweep)-1]}
	return cfg, RegretConfig{Churn: 0.25, Cancel: 0.2, TopK: 8, LP: true}
}

// RegretSweep runs the oracle-rail study over cfg.Sweep. The returned
// points are ordered like the sweep; every policy row shares its
// density's single compiled instance and oracle solve.
func RegretSweep(ctx context.Context, cfg Config, rc RegretConfig) ([]RegretPoint, error) {
	if rc.Window <= 0 {
		rc.Window = 45
	}
	if rc.TopK < 0 {
		return nil, fmt.Errorf("experiments: negative TopK %d", rc.TopK)
	}
	points := make([]RegretPoint, len(cfg.Sweep))
	for pi, n := range cfg.Sweep {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pt, err := regretPoint(cfg, rc, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: regret @%d drivers: %w", n, err)
		}
		points[pi] = pt
	}
	return points, nil
}

// regretPoint runs one density: two policies, one shared oracle.
func regretPoint(cfg Config, rc RegretConfig, drivers int) (RegretPoint, error) {
	tcfg := trace.NewConfig(cfg.Seed, cfg.Tasks, drivers, trace.Hitchhiking)
	tr := trace.NewGenerator(tcfg).Generate(nil)
	if rc.Churn > 0 || rc.Cancel > 0 {
		tr.Events = trace.WithChurn(tr, trace.DefaultChurn(cfg.Seed, rc.Churn, rc.Cancel))
	}

	eng, err := sim.New(tcfg.Market, tr.Drivers, cfg.Seed)
	if err != nil {
		return RegretPoint{}, err
	}
	results := []sim.Result{
		eng.RunScenario(tr.Tasks, tr.Events, online.MaxMargin{}),
		eng.RunBatchedScenario(tr.Tasks, tr.Events, rc.Window),
	}

	// Force-keep every policy's pairs so the rail optimum dominates
	// them all; warm-start from the highest-revenue policy.
	var keep [][2]int32
	bestPolicy := 0
	for i, res := range results {
		for m, d := range res.Assignment {
			keep = append(keep, [2]int32{int32(m), int32(d)})
		}
		if res.Revenue > results[bestPolicy].Revenue {
			bestPolicy = i
		}
	}

	t0 := time.Now()
	in, err := offline.Compile(tcfg.Market, tr, offline.Options{
		Objective: offline.ObjectiveRevenue,
		TopK:      rc.TopK,
		Keep:      keep,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return RegretPoint{}, err
	}
	compileSec := time.Since(t0).Seconds()

	var solver bound.SparseSolver
	t0 = time.Now()
	sol, err := solver.Solve(in, bound.SparseOptions{
		Warm:    results[bestPolicy].DriverPaths,
		LP:      rc.LP,
		NodeCap: rc.NodeCap,
	})
	if err != nil {
		return RegretPoint{}, err
	}
	solveSec := time.Since(t0).Seconds()

	offServed := 0
	for _, d := range sol.TaskDriver {
		if d >= 0 {
			offServed++
		}
	}
	pt := RegretPoint{
		Drivers: drivers,
		Oracle: RegretOracle{
			CompileSeconds:  compileSec,
			SolveSeconds:    solveSec,
			Exact:           sol.Exact,
			Components:      sol.Components,
			ExactComponents: sol.ExactComponents,
			Pairs:           in.Stats.Pairs,
			Arcs:            in.Stats.Arcs,
			Nodes:           sol.Nodes,
			UpperBound:      sol.UpperBound,
			WarmKept:        sol.WarmKept,
			WarmDropped:     sol.WarmDropped,
			LPSolved:        sol.LPSolved,
			LPFixed:         sol.LPFixed,
		},
	}
	for i, res := range results {
		pt.Rows = append(pt.Rows, RegretRow{
			Policy:         RegretPolicies[i],
			Drivers:        drivers,
			OnlineRevenue:  res.Revenue,
			OfflineRevenue: sol.Objective,
			OnlineServed:   res.Served,
			OfflineServed:  offServed,
			RevenueRegret:  sol.Objective - res.Revenue,
		})
	}
	pt.bracket()
	return pt, nil
}

// bracket sets every row's two competitive ratios from its revenues and
// the oracle's upper bound: online ÷ incumbent and online ÷ upper bound.
func (pt *RegretPoint) bracket() {
	ratio := func(online, offline float64) float64 {
		switch {
		case offline > 0:
			return online / offline
		case online == 0:
			return 1 // both zero: the policy left nothing behind
		default:
			return 0
		}
	}
	for i := range pt.Rows {
		row := &pt.Rows[i]
		row.CompetitiveRatio = ratio(row.OnlineRevenue, row.OfflineRevenue)
		row.CompetitiveRatioLow = ratio(row.OnlineRevenue, pt.Oracle.UpperBound)
	}
}

// RegretFigure renders the sweep as a competitive-ratio figure, two
// series per policy: the bracket's lower end (online ÷ the oracle's
// upper bound) and its upper end (online ÷ incumbent), equal at a point
// whose solve is exact. Where a point is inexact, the label and the
// notes say the ÷incumbent column is an upper bound on the ratio and
// name how many of the point's components were inexact.
func RegretFigure(points []RegretPoint, cfg Config, rc RegretConfig) Figure {
	series := make([]Series, 2*len(RegretPolicies))
	for i, name := range RegretPolicies {
		series[2*i].Name = name + " ÷UB"
		series[2*i+1].Name = name + " ÷incumbent"
	}
	exact := 0
	var inexact []string
	for _, pt := range points {
		if pt.Oracle.Exact {
			exact++
		} else {
			inexact = append(inexact, fmt.Sprintf("%d/%d at %d drivers",
				pt.Oracle.Components-pt.Oracle.ExactComponents, pt.Oracle.Components, pt.Drivers))
		}
		x := float64(pt.Drivers)
		for i, row := range pt.Rows {
			lo, hi := &series[2*i], &series[2*i+1]
			lo.X, lo.Y = append(lo.X, x), append(lo.Y, row.CompetitiveRatioLow)
			hi.X, hi.Y = append(hi.X, x), append(hi.Y, row.CompetitiveRatio)
		}
	}
	fig := Figure{
		ID:     "regret",
		Title:  "Competitive Ratio vs Hindsight Optimum",
		XLabel: "number of drivers", YLabel: "online revenue / offline optimum",
		Series: series,
		Notes: fmt.Sprintf("%d tasks; churn=%.2f cancel=%.2f; rail top-%d; %d/%d oracle solves exact",
			cfg.Tasks, rc.Churn, rc.Cancel, rc.TopK, exact, len(points)),
	}
	if len(inexact) > 0 {
		fig.YLabel = "online revenue / offline optimum, bracketed: ÷UB a lower bound, ÷incumbent an upper bound where inexact"
		fig.Notes += "; components inexact: " + strings.Join(inexact, ", ") +
			" (there ÷incumbent is an upper bound on the ratio, ÷UB a lower bound)"
	}
	return fig
}
