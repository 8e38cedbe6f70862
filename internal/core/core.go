// Package core is the optimization framework of the paper: it bundles a
// market instance (drivers, tasks, cost model) into a Problem, exposes
// the two objectives of §III — drivers' profit maximization (Eq. 4) and
// social welfare maximization (Eq. 6) — and runs offline and online
// solvers against them under a common Solution contract with full
// constraint validation (Eqs. 5a–5h, 7a).
package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/offline"
	"repro/internal/sim"
	"repro/internal/taskmap"
)

// Problem is one market optimization instance. Construct with
// NewProblem; the task-map graph is built lazily and cached.
type Problem struct {
	Market  model.Market
	Drivers []model.Driver
	Tasks   []model.Task

	graph *taskmap.Graph
}

// NewProblem validates and bundles a market instance.
func NewProblem(m model.Market, drivers []model.Driver, tasks []model.Task) (*Problem, error) {
	if err := model.ValidateAll(m, drivers, tasks); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Problem{
		Market:  m,
		Drivers: append([]model.Driver(nil), drivers...),
		Tasks:   append([]model.Task(nil), tasks...),
	}, nil
}

// Graph returns the merged task map (§III-B), building it on first use.
func (p *Problem) Graph() *taskmap.Graph {
	if p.graph == nil {
		g, err := taskmap.New(p.Market, p.Drivers, p.Tasks)
		if err != nil {
			// NewProblem validated the same inputs; reaching here is a
			// programming error.
			panic(fmt.Sprintf("core: task map construction failed on validated problem: %v", err))
		}
		p.graph = g
	}
	return p.graph
}

// WelfareProblem returns the social-welfare view of the problem
// (§III-D): identical except every task's payoff is replaced by the
// customer's willingness-to-pay b_m. Running any drivers'-profit solver
// on the returned problem maximizes Eq. (6), exactly as §III-E
// prescribes ("we can use the same algorithms ... to solve the social
// welfare maximization problem").
func (p *Problem) WelfareProblem() *Problem {
	tasks := append([]model.Task(nil), p.Tasks...)
	for i := range tasks {
		tasks[i].Price = tasks[i].WTP
	}
	return &Problem{Market: p.Market, Drivers: p.Drivers, Tasks: tasks}
}

// Solution is the common result contract of all solvers.
type Solution struct {
	Algorithm string
	// Paths holds each selected driver's task list. For online solvers
	// the per-path Profit fields are filled from the simulator's
	// real-time accounting.
	Paths []taskmap.Path
	// Profit is the drivers' total profit, objective Eq. (4).
	Profit float64
	// Revenue is Σ p_m over served tasks; Served counts them.
	Revenue float64
	Served  int
	// Online holds the full simulator result for online solvers, nil
	// for offline ones.
	Online *sim.Result
}

// Welfare returns the social-welfare value (Eq. 6) of the solution
// against the given problem: drivers' profit plus consumer surplus
// Σ (b_m − p_m) of served tasks.
func (s Solution) Welfare(p *Problem) float64 {
	w := s.Profit
	for _, path := range s.Paths {
		for _, t := range path.Tasks {
			w += p.Tasks[t].Surplus()
		}
	}
	return w
}

// Solver produces a Solution for a Problem.
type Solver interface {
	Name() string
	Solve(p *Problem) (Solution, error)
}

// GreedySolver runs the offline greedy algorithm GA (§IV, Algorithm 1),
// lazily evaluated (offline.Greedy).
type GreedySolver struct{}

var _ Solver = GreedySolver{}

// Name implements Solver.
func (GreedySolver) Name() string { return "Greedy" }

// Solve implements Solver.
func (g GreedySolver) Solve(p *Problem) (Solution, error) {
	res := offline.Greedy(p.Graph())
	sol := Solution{
		Algorithm: g.Name(),
		Paths:     res.Paths,
		Profit:    res.TotalProfit,
		Served:    res.ServedTasks(),
	}
	for _, path := range res.Paths {
		for _, t := range path.Tasks {
			sol.Revenue += p.Tasks[t].Price
		}
	}
	if err := p.CheckOffline(sol); err != nil {
		return Solution{}, fmt.Errorf("core: greedy produced invalid solution: %w", err)
	}
	return sol, nil
}

// OnlineSolver adapts a sim.Dispatcher to the Solver interface, running
// the online market simulation in task publish order (or by descending
// price when ByValue is set — the offline variant of §V-B).
type OnlineSolver struct {
	Dispatcher sim.Dispatcher
	Seed       int64
	ByValue    bool
}

var _ Solver = OnlineSolver{}

// Name implements Solver.
func (o OnlineSolver) Name() string {
	name := o.Dispatcher.Name()
	if o.ByValue {
		name += "(by-value)"
	}
	return name
}

// Solve implements Solver.
func (o OnlineSolver) Solve(p *Problem) (Solution, error) {
	eng, err := sim.New(p.Market, p.Drivers, o.Seed)
	if err != nil {
		return Solution{}, err
	}
	var res sim.Result
	if o.ByValue {
		res = eng.RunByValue(p.Tasks, o.Dispatcher)
	} else {
		res = eng.RunScenario(p.Tasks, nil, o.Dispatcher)
	}
	sol := Solution{
		Algorithm: o.Name(),
		Profit:    res.TotalProfit,
		Revenue:   res.Revenue,
		Served:    res.Served,
		Online:    &res,
	}
	for n, tasks := range res.DriverPaths {
		if len(tasks) == 0 {
			continue
		}
		sol.Paths = append(sol.Paths, taskmap.Path{
			Driver: n,
			Tasks:  append([]int(nil), tasks...),
			Profit: res.PerDriverProfit[n],
		})
	}
	if err := p.CheckDisjoint(sol); err != nil {
		return Solution{}, fmt.Errorf("core: online solver produced invalid solution: %w", err)
	}
	return sol, nil
}

// CheckDisjoint verifies the constraints every solution — offline or
// online — must satisfy: each task assigned to at most one driver
// (Eq. 5a), at most one task list per driver (Eq. 10a), and task indices
// in range.
func (p *Problem) CheckDisjoint(s Solution) error {
	seenDriver := make(map[int]bool)
	seenTask := make(map[int]bool)
	for _, path := range s.Paths {
		if path.Driver < 0 || path.Driver >= len(p.Drivers) {
			return fmt.Errorf("driver index %d out of range", path.Driver)
		}
		if seenDriver[path.Driver] {
			return fmt.Errorf("driver %d has multiple task lists", path.Driver)
		}
		seenDriver[path.Driver] = true
		for _, t := range path.Tasks {
			if t < 0 || t >= len(p.Tasks) {
				return fmt.Errorf("task index %d out of range", t)
			}
			if seenTask[t] {
				return fmt.Errorf("task %d assigned twice (violates Eq. 5a)", t)
			}
			seenTask[t] = true
		}
	}
	return nil
}

// CheckOffline verifies the full offline model: CheckDisjoint plus, for
// every path, flow feasibility in the driver's task map (Eqs. 5c–5f via
// arc-by-arc reconstruction), agreement of the declared profit with the
// ground-truth valuation, and individual rationality (Eq. 5b).
func (p *Problem) CheckOffline(s Solution) error {
	if err := p.CheckDisjoint(s); err != nil {
		return err
	}
	g := p.Graph()
	for _, path := range s.Paths {
		profit, err := g.PathProfit(path.Driver, path.Tasks)
		if err != nil {
			return fmt.Errorf("driver %d: %w", path.Driver, err)
		}
		if diff := profit - path.Profit; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("driver %d: declared profit %.9f, recomputed %.9f", path.Driver, path.Profit, profit)
		}
		if profit < -1e-9 {
			return fmt.Errorf("driver %d: negative profit %.9f violates individual rationality (Eq. 5b)", path.Driver, profit)
		}
	}
	return nil
}

// PerformanceRatio returns profit / upperBound ∈ [0, 1]: the fraction of
// the relaxation bound Z*_f an algorithm attains. The paper's §VI-B
// reports the reciprocal (Z*_f divided by achieved profit); we report
// the bounded form so that "higher is better" and curves stay in [0,1].
func PerformanceRatio(profit, upperBound float64) float64 {
	if upperBound <= 0 {
		return 0
	}
	if profit < 0 {
		return 0
	}
	return profit / upperBound
}
