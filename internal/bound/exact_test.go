package bound

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/offline"
)

// ErrPathLimit reports that a per-driver path enumeration blew its cap.
var ErrPathLimit = errors.New("path limit exceeded")

// This file is the dense oracle of the exact solvers: BruteForce
// enumerates every driver's paths in the dense task map and tries every
// node-disjoint combination of them — the paper's small-scale exact
// comparison (§VI-B, n ≤ 50, m ≤ 100) done the slow, obvious way. The
// sparse branch-and-bound (sparse.go) must reproduce it bit for bit.

// Exact is an integral optimum with its assignment.
type Exact struct {
	Objective float64
	Paths     []offline.Path // one entry per driver with a non-empty list
}

// EnumeratePaths lists every nonempty source→destination task sequence
// for driver n, up to the cap. It is exponential.
func EnumeratePaths(g *Graph, n, cap int) ([]offline.Path, error) {
	var out []offline.Path
	var cur []int
	var dfs func(last int) error
	dfs = func(last int) error {
		if len(out) > cap {
			return fmt.Errorf("bound: driver %d exceeds %d paths: %w", n, cap, ErrPathLimit)
		}
		profit, err := g.PathProfit(n, cur)
		if err != nil {
			return err
		}
		out = append(out, offline.Path{Driver: n, Tasks: append([]int(nil), cur...), Profit: profit})
		for _, s := range g.Succs[last] {
			if g.Feasible(n, int(s)) {
				cur = append(cur, int(s))
				if err := dfs(int(s)); err != nil {
					return err
				}
				cur = cur[:len(cur)-1]
			}
		}
		return nil
	}
	for t := 0; t < g.M(); t++ {
		if g.Feasible(n, t) && g.SourceReachable(n, t) {
			cur = append(cur, t)
			if err := dfs(t); err != nil {
				return nil, err
			}
			cur = cur[:len(cur)-1]
		}
	}
	return out, nil
}

// BruteForce computes the exact optimum by exhaustive search over
// node-disjoint combinations of per-driver paths. Only usable on tiny
// instances; the per-driver path count is capped at pathCap (default
// 5000 when ≤ 0).
func BruteForce(g *Graph, pathCap int) (Exact, error) {
	if pathCap <= 0 {
		pathCap = 5000
	}
	n := g.N()
	all := make([][]offline.Path, n)
	for i := 0; i < n; i++ {
		ps, err := EnumeratePaths(g, i, pathCap)
		if err != nil {
			return Exact{}, err
		}
		// Keep only strictly profitable paths; empty is the implicit
		// alternative.
		var kept []offline.Path
		for _, p := range ps {
			if p.Profit > 0 {
				kept = append(kept, p)
			}
		}
		all[i] = kept
	}

	used := make([]bool, g.M())
	best := 0.0
	var bestPaths []offline.Path
	var chosen []offline.Path
	var rec func(i int, total float64)
	rec = func(i int, total float64) {
		if i == n {
			if total > best {
				best = total
				bestPaths = append([]offline.Path(nil), chosen...)
			}
			return
		}
		rec(i+1, total) // driver i takes nothing
		for _, p := range all[i] {
			ok := true
			for _, t := range p.Tasks {
				if used[t] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, t := range p.Tasks {
				used[t] = true
			}
			chosen = append(chosen, p)
			rec(i+1, total+p.Profit)
			chosen = chosen[:len(chosen)-1]
			for _, t := range p.Tasks {
				used[t] = false
			}
		}
	}
	rec(0, 0)
	if math.IsInf(best, -1) {
		best = 0
	}
	return Exact{Objective: best, Paths: bestPaths}, nil
}
