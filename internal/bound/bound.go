// Package bound computes the optimization bounds the paper's evaluation
// compares against (§III-E, §VI-B):
//
//   - Z*_f, the optimum of the LP relaxation of the node-disjoint-paths
//     formulation (9)–(10), computed *exactly* by column generation: a
//     restricted master LP over path variables plus a pricing oracle that
//     finds the maximum-reduced-profit path per driver by the task-map
//     longest-path DP. The paper obtains this value from CPLEX/MOSEK.
//   - A Lagrangian (subgradient) upper bound on Z*_f for instances too
//     large for the dense master LP: every dual-feasible λ ≥ 0 yields the
//     valid bound L(λ) = Σ_m λ_m + Σ_n max(0, bestpath_n(λ)); subgradient
//     steps shrink it toward Z*_f.
//   - Z*, the exact integral optimum, by exhaustive search over
//     node-disjoint per-driver paths (BruteForce) — the paper's
//     small-scale exact comparison (n ≤ 50, m ≤ 100) — and, for the
//     hindsight oracle at city scale, by the sparse branch-and-bound
//     (Sparse), held to BruteForce on every instance it can enumerate.
package bound

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/taskmap"
)

// Result is an upper bound on the integral optimum Z*.
type Result struct {
	Bound  float64
	Method string
	Iters  int
}

// ColumnGeneration computes the exact LP-relaxation optimum Z*_f of the
// path formulation. It returns the bound, the final task duals λ (useful
// as a warm start for Lagrangian refinement elsewhere), and an error if
// the master LP misbehaves.
//
// Master:  max Σ r_π f_π
//
//	s.t. Σ_{π ∈ P_i} f_π ≤ 1   (driver convexity, dual μ_i)
//	     Σ_{π ∋ m}  f_π ≤ 1    (task packing,     dual λ_m)
//	     f ≥ 0
//
// Pricing for driver i: maximize r_π − Σ_{m∈π} λ_m over paths π ∈ P_i,
// i.e. the longest path under node values (p_m − ĉ_m − λ_m); a column
// with r_π − Σλ > μ_i enters. Termination with no entering column proves
// LP optimality by exact pricing.
func ColumnGeneration(g *taskmap.Graph) (Result, []float64, error) {
	n := g.N()
	m := g.M()
	if n == 0 || m == 0 {
		return Result{Bound: 0, Method: "colgen"}, make([]float64, m), nil
	}

	// Row layout: [0,n) driver rows, [n, n+m) task rows.
	master := lp.NewProblem(1) // dummy col 0 (objective 0, in no rows)
	for i := 0; i < n; i++ {
		master.AddRow(1)
	}
	for j := 0; j < m; j++ {
		master.AddRow(1)
	}

	type column struct {
		driver int
		tasks  []int
	}
	seen := make(map[string]bool)
	addColumn := func(p taskmap.Path) bool {
		key := pathKey(p)
		if seen[key] {
			return false
		}
		seen[key] = true
		profit, err := g.PathProfit(p.Driver, p.Tasks)
		if err != nil {
			panic(fmt.Sprintf("bound: pricing returned invalid path: %v", err))
		}
		col := master.AddVar(profit)
		master.SetCoeff(p.Driver, col, 1)
		for _, tk := range p.Tasks {
			master.SetCoeff(n+tk, col, 1)
		}
		return true
	}

	// Seed with each driver's unconstrained best path.
	for i := 0; i < n; i++ {
		if p := g.BestPath(i, nil, nil); p.Len() > 0 && p.Profit > 0 {
			addColumn(p)
		}
	}

	const (
		maxRounds = 400
		rcTol     = 1e-7
	)
	lambda := make([]float64, m)
	var lastObj float64
	var lps lp.Solver // re-solves the growing master from the slack basis each round
	for round := 0; round < maxRounds; round++ {
		sol, err := lps.Solve(master)
		if err != nil {
			return Result{}, nil, fmt.Errorf("bound: master LP: %w", err)
		}
		if sol.Status != lp.Optimal {
			return Result{}, nil, fmt.Errorf("bound: master LP status %v", sol.Status)
		}
		lastObj = sol.Objective

		for j := 0; j < m; j++ {
			lambda[j] = math.Max(0, sol.Duals[n+j])
		}
		improved := false
		for i := 0; i < n; i++ {
			mu := math.Max(0, sol.Duals[i])
			p := g.BestPath(i, nil, lambda)
			if p.Len() == 0 {
				continue
			}
			// p.Profit is r_π − Σ_{m∈π} λ_m by construction of the
			// dual-adjusted DP.
			if p.Profit > mu+rcTol {
				if addColumn(p) {
					improved = true
				}
			}
		}
		if !improved {
			return Result{Bound: lastObj, Method: "colgen", Iters: round + 1}, lambda, nil
		}
	}
	// Round limit: the master value is a lower bound on Z*_f, not an
	// upper bound; fall back to the always-valid Lagrangian value at the
	// current duals.
	lr := lagrangianValue(g, lambda)
	return Result{Bound: lr, Method: "colgen-truncated", Iters: maxRounds}, lambda, nil
}

func pathKey(p taskmap.Path) string {
	key := fmt.Sprintf("d%d:", p.Driver)
	for _, t := range p.Tasks {
		key += fmt.Sprintf("%d,", t)
	}
	return key
}

// lagrangianValue evaluates L(λ) = Σλ + Σ_i max(0, bestpath_i(λ)), a
// valid upper bound on Z*_f (hence on Z*) for any λ ≥ 0.
func lagrangianValue(g *taskmap.Graph, lambda []float64) float64 {
	v := 0.0
	for _, l := range lambda {
		v += l
	}
	for i := 0; i < g.N(); i++ {
		if p := g.BestPath(i, nil, lambda); p.Profit > 0 {
			v += p.Profit
		}
	}
	return v
}

// Lagrangian computes an upper bound on Z*_f by projected subgradient
// descent on L(λ). knownLB, if positive, enables Polyak step sizing
// (pass the greedy solution's profit); iters bounds the descent. The
// returned bound is the minimum L(λ) over all iterates and is always a
// valid upper bound on Z*, whatever the iteration count.
func Lagrangian(g *taskmap.Graph, knownLB float64, iters int) Result {
	m := g.M()
	n := g.N()
	if n == 0 || m == 0 {
		return Result{Bound: 0, Method: "lagrangian"}
	}
	if iters <= 0 {
		iters = 100
	}
	lambda := make([]float64, m)
	best := math.Inf(1)
	usage := make([]int, m)

	for k := 1; k <= iters; k++ {
		// Evaluate L(λ) and collect the subgradient.
		for j := range usage {
			usage[j] = 0
		}
		val := 0.0
		for _, l := range lambda {
			val += l
		}
		for i := 0; i < n; i++ {
			p := g.BestPath(i, nil, lambda)
			if p.Profit > 0 {
				val += p.Profit
				for _, t := range p.Tasks {
					usage[t]++
				}
			}
		}
		if val < best {
			best = val
		}

		// g_m = 1 − usage_m; step toward lower L.
		var gnorm2 float64
		for j := 0; j < m; j++ {
			gj := 1 - float64(usage[j])
			gnorm2 += gj * gj
		}
		if gnorm2 < 1e-12 {
			break // subgradient zero: λ is optimal
		}
		var step float64
		if knownLB > 0 && best > knownLB {
			step = 0.7 * (val - knownLB) / gnorm2 // Polyak
		} else {
			step = (1 + math.Abs(val)) / (gnorm2 * math.Sqrt(float64(k)))
		}
		for j := 0; j < m; j++ {
			gj := 1 - float64(usage[j])
			lambda[j] = math.Max(0, lambda[j]-step*gj)
		}
	}
	return Result{Bound: best, Method: "lagrangian", Iters: iters}
}

// Auto computes Z*_f by instance size: exact column generation when the
// master stays small (N+M ≤ 150), otherwise iters rounds of Lagrangian
// subgradient, whose step size greedyLB (the greedy profit, or 0)
// sharpens. fellBack reports that column generation was attempted but
// errored: the Lagrangian result is still a valid bound, but a caller
// can count it so a misbehaving master LP cannot hide behind a weaker
// bound.
func Auto(g *taskmap.Graph, greedyLB float64, iters int) (_ Result, fellBack bool) {
	if g.N()+g.M() > 150 {
		return Lagrangian(g, greedyLB, iters), false
	}
	if r, _, err := ColumnGeneration(g); err == nil {
		return r, false
	}
	return Lagrangian(g, greedyLB, iters), true
}
