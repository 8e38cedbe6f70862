// Package offline implements the paper's deterministic offline solution
// (§IV): the greedy algorithm GA (Algorithm 1) for the maximum-value
// node-disjoint paths problem, which achieves a tight 1/(D+1)
// approximation ratio where D is the task-map diameter (Theorem 1).
//
// GA repeatedly selects the highest-profit source→destination path in the
// current graph, assigns it to its driver, and removes the driver and the
// path's task nodes. This implementation reproduces GA's exact choice
// sequence with lazy re-evaluation: removing nodes can only lower any
// driver's best-path profit, so a cached best path that survived all
// removals and still tops a max-heap is provably the global argmax —
// stale entries are recomputed on demand instead of recomputing every
// driver every iteration (the paper's O(N²M²) worst case is preserved,
// the common case is far cheaper).
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

// Assignment returns task→driver in a map, for quick membership tests.
func (s Solution) Assignment() map[int]int {
	out := make(map[int]int)
	for _, p := range s.Paths {
		for _, t := range p.Tasks {
			out[t] = p.Driver
		}
	}
	return out
}

// ServedTasks returns the number of tasks assigned.
func (s Solution) ServedTasks() int {
	n := 0
	for _, p := range s.Paths {
		n += len(p.Tasks)
	}
	return n
}

type heapItem struct {
	path    Path
	driver  int // compact driver index
	version int // graph version when the path was computed
}

// profitFirst orders the max-heap by profit alone, so equal-profit
// paths pop in heap order.
func profitFirst(a, b heapItem) bool { return a.path.Profit > b.path.Profit }

// Greedy runs Algorithm 1 on the compiled task map and returns the
// selected paths. The choice sequence is exactly the paper's GA up to
// arbitrary tie-breaking between equal-profit paths.
func Greedy(in *Instance) Solution {
	var dp PathDP
	dp.Reset(in)
	var slots []int32
	var sol Solution
	version := 0
	// best prices compact driver d's best path around the removed tasks
	// and reports whether it is worth a heap entry.
	best := func(d int) (heapItem, bool) {
		sol.Recomputes++
		v, end := dp.Best(in, d, nil)
		if end < 0 {
			return heapItem{}, false
		}
		slots = dp.AppendSlots(slots[:0], end)
		return heapItem{path: in.Path(d, slots, v), driver: d, version: version}, true
	}

	h := make([]heapItem, 0, in.NDrv())
	for d := 0; d < in.NDrv(); d++ {
		if it, ok := best(d); ok {
			h = append(h, it)
		}
	}
	heap.Init(h, profitFirst)

	for len(h) > 0 {
		it := heap.Pop(&h, profitFirst)
		if it.version != version && !allAlive(it.path.Tasks, dp.Dead) {
			// Stale: some node on the cached path was removed.
			// Recompute against the current graph; the recomputed
			// profit can only be ≤ the cached one, so pushing it back
			// keeps the heap's max property sound.
			if fresh, ok := best(it.driver); ok {
				heap.Push(&h, fresh, profitFirst)
			}
			continue
		}
		// If the cached path survived every removal its profit is still
		// attainable, and since removals only lower best-path profits it
		// is still the driver's optimum — fresh by value, even if the
		// version lagged.
		// Fresh: this is the global maximum-profit path. Select it.
		sol.Paths = append(sol.Paths, it.path)
		sol.TotalProfit += it.path.Profit
		sol.Iterations++
		for _, t := range it.path.Tasks {
			dp.Dead[t] = true
		}
		version++
	}
	return sol
}

func allAlive(tasks []int, dead []bool) bool {
	for _, t := range tasks {
		if dead[t] {
			return false
		}
	}
	return true
}
