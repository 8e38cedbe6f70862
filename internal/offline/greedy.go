// Package offline implements the paper's deterministic offline solution
// (§IV): the greedy algorithm GA (Algorithm 1) for the maximum-value
// node-disjoint paths problem, which achieves a tight 1/(D+1)
// approximation ratio where D is the task-map diameter (Theorem 1).
//
// GA repeatedly selects the highest-profit source→destination path in the
// current graph, assigns it to its driver, and removes the driver and the
// path's task nodes; equal profits go to the lower driver. This
// implementation reproduces GA's exact choice sequence with lazy
// re-evaluation: removing nodes can only lower any driver's best-path
// profit, so a cached best path that survived all removals and still
// tops a max-heap is provably the global argmax — stale entries are
// recomputed on demand instead of recomputing every driver every
// iteration (the paper's O(N²M²) worst case is preserved, the common
// case is far cheaper). It is the one Algorithm 1 of the repository:
// the hindsight oracle's incumbent (bound.SparseSolver) reads its picks
// from a GreedyRun.
package offline

import "repro/internal/heap"

// Solution is the assignment produced by the greedy algorithm.
type Solution struct {
	// Paths holds the selected task lists, in selection order (highest
	// profit first), one per selected driver.
	Paths []Path
	// TotalProfit is the drivers' total profit (objective Eq. 4).
	TotalProfit float64
	// Iterations is the number of greedy selections (K in the paper's
	// analysis); Recomputes counts longest-path DP invocations, the
	// measure of how much work lazy evaluation saved.
	Iterations int
	Recomputes int
}

// ServedTasks returns the number of tasks assigned.
func (s Solution) ServedTasks() int {
	n := 0
	for _, p := range s.Paths {
		n += len(p.Tasks)
	}
	return n
}

// GreedyRun is Algorithm 1 with its scratch: the DP, the heap, and the
// slots of every path the run priced. The zero value is ready; a run
// allocates only when its instance needs more room than every run
// before it.
type GreedyRun struct {
	dp         PathDP
	heap       []greedyItem
	slots      []int32      // the priced paths, end to end
	sel        []greedyItem // the selected paths, in selection order
	pick       []int32      // per compact driver: her index in sel, or -1
	recomputes int
}

// greedyItem is compact driver d's best path, slots[off:off+n] of its
// run, worth profit.
type greedyItem struct {
	off, n int32
	driver int32
	profit float64
}

// profitFirst is GA's order: the higher profit first, and of equal
// profits the lower compact driver.
func profitFirst(a, b greedyItem) bool {
	return a.profit > b.profit || a.profit == b.profit && a.driver < b.driver
}

// Run runs Algorithm 1 on the compiled task map.
func (g *GreedyRun) Run(in *Instance) {
	g.dp.Reset(in)
	g.heap, g.slots, g.sel = g.heap[:0], g.slots[:0], g.sel[:0]
	g.recomputes = 0
	g.pick = g.pick[:0]
	for d := 0; d < in.NDrv(); d++ {
		g.pick = append(g.pick, -1)
		if it, ok := g.best(in, d); ok {
			g.heap = append(g.heap, it)
		}
	}
	heap.Init(g.heap, profitFirst)
	for len(g.heap) > 0 {
		it := heap.Pop(&g.heap, profitFirst)
		if !g.alive(in, it) {
			// Stale: some node on the cached path was removed.
			// Recompute against the current graph; the recomputed
			// profit can only be ≤ the cached one, so pushing it back
			// keeps the heap's max property sound.
			if fresh, ok := g.best(in, int(it.driver)); ok {
				heap.Push(&g.heap, fresh, profitFirst)
			}
			continue
		}
		// A cached path that survived every removal is still its
		// driver's optimum (removals only lower best-path profits), and
		// the DP would find it again. Every other entry bounds its
		// driver from above and comes later in GA's order, so this is
		// the global maximum-profit path. Select it.
		g.pick[it.driver] = int32(len(g.sel))
		g.sel = append(g.sel, it)
		for _, s := range g.slots[it.off : it.off+it.n] {
			g.dp.Dead[in.DrvTask[s]] = true
		}
	}
}

// best prices compact driver d's best path around the removed tasks and
// reports whether it is worth a heap entry.
func (g *GreedyRun) best(in *Instance, d int) (greedyItem, bool) {
	g.recomputes++
	v, end := g.dp.Best(in, d, nil)
	if end < 0 {
		return greedyItem{}, false
	}
	off := len(g.slots)
	g.slots = g.dp.AppendSlots(g.slots, end)
	return greedyItem{off: int32(off), n: int32(len(g.slots) - off), driver: int32(d), profit: v}, true
}

func (g *GreedyRun) alive(in *Instance, it greedyItem) bool {
	for _, s := range g.slots[it.off : it.off+it.n] {
		if g.dp.Dead[in.DrvTask[s]] {
			return false
		}
	}
	return true
}

// Pick returns the slots and DP value of the path the last Run selected
// for compact driver d; ok is false if it selected none. The slots are
// the run's: valid until the next Run.
func (g *GreedyRun) Pick(d int) (slots []int32, profit float64, ok bool) {
	i := g.pick[d]
	if i < 0 {
		return nil, 0, false
	}
	it := g.sel[i]
	return g.slots[it.off : it.off+it.n], it.profit, true
}

// Greedy runs Algorithm 1 on the compiled task map and returns the
// selected paths: the paper's GA, choice for choice, with equal-profit
// paths taken by the lower driver.
func Greedy(in *Instance) Solution {
	var g GreedyRun
	g.Run(in)
	sol := Solution{Iterations: len(g.sel), Recomputes: g.recomputes}
	for _, it := range g.sel {
		sol.Paths = append(sol.Paths, in.Path(int(it.driver), g.slots[it.off:it.off+it.n], it.profit))
		sol.TotalProfit += it.profit
	}
	return sol
}
