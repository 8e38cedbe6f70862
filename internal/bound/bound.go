// Package bound computes the optimization bounds the paper's evaluation
// compares against (§III-E, §VI-B), on the compiled task map
// (offline.Instance):
//
//   - Z*_f, the optimum of the LP relaxation of the node-disjoint-paths
//     formulation (9)–(10), computed *exactly* by column generation: a
//     restricted master LP over path variables plus a pricing oracle that
//     finds the maximum-reduced-profit path per driver by the task-map
//     longest-path DP (offline.PathDP). The paper obtains this value from
//     CPLEX/MOSEK.
//   - A Lagrangian (subgradient) upper bound on Z*_f for instances too
//     large for the dense master LP: every dual-feasible λ ≥ 0 yields the
//     valid bound L(λ) = Σ_m λ_m + Σ_n max(0, bestpath_n(λ)); subgradient
//     steps shrink it toward Z*_f.
//   - Z*, the exact integral optimum, by the sparse branch-and-bound
//     (SparseSolver) — the paper's small-scale exact comparison
//     (n ≤ 50, m ≤ 100) and the hindsight oracle at city scale — held in
//     tests to a brute force over the dense task map.
package bound

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/offline"
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
func ColumnGeneration(in *offline.Instance) (Result, []float64, error) {
	n := len(in.Drivers)
	m := len(in.Tasks)
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

	var dp offline.PathDP
	dp.Reset(in)
	var slots []int32
	seen := make(map[string]bool)
	// addColumn enters compact driver d's path ending at slot end, the
	// one the last DP found.
	addColumn := func(d int, end int32) bool {
		slots = dp.AppendSlots(slots[:0], end)
		key := fmt.Sprint(slots) // slot ids name their driver
		if seen[key] {
			return false
		}
		seen[key] = true
		profit, err := in.PathValue(d, slots)
		if err != nil {
			panic(fmt.Sprintf("bound: pricing returned invalid path: %v", err))
		}
		col := master.AddVar(profit)
		master.SetCoeff(in.DrvID[d], col, 1)
		for _, s := range slots {
			master.SetCoeff(n+int(in.DrvTask[s]), col, 1)
		}
		return true
	}

	// Seed with each driver's unconstrained best path.
	for d := 0; d < in.NDrv(); d++ {
		if _, end := dp.Best(in, d, nil); end >= 0 {
			addColumn(d, end)
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
		for d := 0; d < in.NDrv(); d++ {
			mu := math.Max(0, sol.Duals[in.DrvID[d]])
			// The DP's value is r_π − Σ_{m∈π} λ_m by construction.
			if v, end := dp.Best(in, d, lambda); end >= 0 && v > mu+rcTol {
				if addColumn(d, end) {
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
	lr := lagrangianValue(in, &dp, lambda, nil)
	return Result{Bound: lr, Method: "colgen-truncated", Iters: maxRounds}, lambda, nil
}

// lagrangianValue evaluates L(λ) = Σλ + Σ_i max(0, bestpath_i(λ)), a
// valid upper bound on Z*_f (hence on Z*) for any λ ≥ 0. If usage is
// non-nil it counts, per task, the best paths that take it.
func lagrangianValue(in *offline.Instance, dp *offline.PathDP, lambda []float64, usage []int) float64 {
	v := 0.0
	for _, l := range lambda {
		v += l
	}
	for d := 0; d < in.NDrv(); d++ {
		best, end := dp.Best(in, d, lambda)
		if end < 0 {
			continue
		}
		v += best
		if usage != nil {
			for s := end; s >= 0; s = dp.Prev(s) {
				usage[in.DrvTask[s]]++
			}
		}
	}
	return v
}

// Lagrangian computes an upper bound on Z*_f by projected subgradient
// descent on L(λ). knownLB, if positive, enables Polyak step sizing
// (pass the greedy solution's profit); iters bounds the descent. The
// returned bound is the minimum L(λ) over all iterates and is always a
// valid upper bound on Z*, whatever the iteration count.
func Lagrangian(in *offline.Instance, knownLB float64, iters int) Result {
	m := len(in.Tasks)
	n := len(in.Drivers)
	if n == 0 || m == 0 {
		return Result{Bound: 0, Method: "lagrangian"}
	}
	if iters <= 0 {
		iters = 100
	}
	var dp offline.PathDP
	dp.Reset(in)
	lambda := make([]float64, m)
	best := math.Inf(1)
	usage := make([]int, m)

	for k := 1; k <= iters; k++ {
		// Evaluate L(λ) and collect the subgradient.
		clear(usage)
		val := lagrangianValue(in, &dp, lambda, usage)
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
func Auto(in *offline.Instance, greedyLB float64, iters int) (_ Result, fellBack bool) {
	if len(in.Drivers)+len(in.Tasks) > 150 {
		return Lagrangian(in, greedyLB, iters), false
	}
	if r, _, err := ColumnGeneration(in); err == nil {
		return r, false
	}
	return Lagrangian(in, greedyLB, iters), true
}
