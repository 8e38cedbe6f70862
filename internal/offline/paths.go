package offline

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file holds what every offline solver reads off a compiled
// instance's task map: the path type, the per-driver longest-path DP
// that the greedy (Algorithm 1), the pricing of Z*_f's column
// generation and every Lagrangian bound run, and the map's diameter D.

// Path is a driver's task list: a source→destination path in her task
// map with its value r_π (Eq. 9's path value: task margins minus
// deadhead and source/sink legs, plus the baseline credit).
type Path struct {
	Driver int   // original driver index
	Tasks  []int // task indices in service order
	Profit float64
}

// Len returns the number of tasks on the path.
func (p Path) Len() int { return len(p.Tasks) }

// PathDP is the per-driver longest-path dynamic program over a compiled
// instance, with its scratch. The zero value is ready once Reset.
type PathDP struct {
	// Dead marks tasks removed from the map (sized M by Reset, all
	// false): the DP routes around them.
	Dead []bool
	cur  []float64 // per task: the best value of a path to it
	prev []int32   // per task: the slot before it on that path, or -1
	task []int32   // the slots' tasks in the last Best's instance
}

// Reset sizes the scratch for in and revives every task. It allocates
// only when in is larger than every instance before it.
func (dp *PathDP) Reset(in *Instance) {
	dp.Dead = slices.Grow(dp.Dead[:0], len(in.Tasks))[:len(in.Tasks)]
	clear(dp.Dead)
	dp.cur = slices.Grow(dp.cur[:0], len(in.Tasks))[:len(in.Tasks)]
	dp.prev = slices.Grow(dp.prev[:0], len(in.Tasks))[:len(in.Tasks)]
}

// Best runs the DP over compact driver d's slots in topological order,
// around the dead tasks, with lambda (if non-nil, one entry per task)
// subtracted from each task's value. It returns the best positive
// closing value and its end slot, or (0, -1) for the empty path. Ties
// keep the earlier candidate: the source leg before any arc, arcs in
// topological order of their tail, and the end earlier in topological
// order.
func (dp *PathDP) Best(in *Instance, d int, lambda []float64) (float64, int32) {
	lo, hi := in.DrvPtr[d], in.DrvPtr[d+1]
	topo := in.DrvTopo[lo:hi]
	ninf := math.Inf(-1)
	dp.task = in.DrvTask
	for _, si := range topo {
		mi := in.DrvTask[si]
		if in.DrvSrcOK[si] && !dp.Dead[mi] {
			dp.cur[mi] = -in.DrvSrcCost[si]
		} else {
			dp.cur[mi] = ninf
		}
		dp.prev[mi] = -1
	}
	best, bestEnd := 0.0, int32(-1)
	for _, si := range topo {
		mi := in.DrvTask[si]
		if dp.Dead[mi] {
			continue
		}
		cv := dp.cur[mi]
		if cv == ninf {
			continue
		}
		v := cv + in.Value[mi]
		if lambda != nil {
			v -= lambda[mi]
		}
		r := v - in.DrvSnkCost[si]
		r += in.Baseline[d]
		if r > best {
			best, bestEnd = r, si
		}
		// Her arcs lead only to tasks she keeps, so their cur was set
		// above.
		for _, k := range in.DrvSucc[in.DrvSuccPtr[si]:in.DrvSuccPtr[si+1]] {
			mj := in.ArcTo[k]
			cand := v - in.ArcCost[k]
			if cand > dp.cur[mj] {
				dp.cur[mj] = cand
				dp.prev[mj] = si
			}
		}
	}
	return best, bestEnd
}

// Prev returns the slot before s on the path the last Best reached s
// by, or -1 if s is its first.
func (dp *PathDP) Prev(s int32) int32 { return dp.prev[dp.task[s]] }

// AppendSlots appends the path the last Best ended at end to dst, in
// service order.
func (dp *PathDP) AppendSlots(dst []int32, end int32) []int32 {
	start := len(dst)
	for s := end; s >= 0; s = dp.Prev(s) {
		dst = append(dst, s)
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Path returns compact driver d's slot sequence as a Path of original
// indices, with the given value.
func (in *Instance) Path(d int, slots []int32, value float64) Path {
	tasks := make([]int, len(slots))
	for i, s := range slots {
		tasks[i] = int(in.DrvTask[s])
	}
	return Path{Driver: in.DrvID[d], Tasks: tasks, Profit: value}
}

// ValueOf prices p's task list in its driver's task map by PathValue,
// erring if the list is not a path there. An empty list is worth 0.
func (in *Instance) ValueOf(p Path) (float64, error) {
	d := in.CompactOf(p.Driver)
	slots := make([]int32, len(p.Tasks))
	for i, m := range p.Tasks {
		s := -1
		if d >= 0 {
			s = in.Slot(d, m)
		}
		if s < 0 {
			return 0, fmt.Errorf("offline: task %d is not in driver %d's task map", m, p.Driver)
		}
		slots[i] = int32(s)
	}
	return in.PathValue(d, slots)
}

// Diameter returns D: the most tasks on any one driver's
// source→destination path, each driver on her own arcs — "the maximum
// number of possible tasks taken by a single driver during one working
// period" (§IV-C). The greedy's approximation ratio is 1/(D+1)
// (Theorem 1).
func (in *Instance) Diameter() int {
	depth := make([]int, in.NSlots())
	for s := range depth {
		if in.DrvSrcOK[s] {
			depth[s] = 1
		}
	}
	slot := make([]int32, len(in.Tasks))
	best := 0
	for d := range in.DrvID {
		in.MapSlots(d, slot)
		for _, si := range in.DrvTopo[in.DrvPtr[d]:in.DrvPtr[d+1]] {
			dep := depth[si]
			if dep == 0 {
				continue
			}
			best = max(best, dep)
			for _, k := range in.DrvSucc[in.DrvSuccPtr[si]:in.DrvSuccPtr[si+1]] {
				sj := slot[in.ArcTo[k]]
				depth[sj] = max(depth[sj], dep+1)
			}
		}
	}
	return best
}

// SharedArcs counts the task map's driver-independent arcs m→m': both
// tasks fit their windows at the market speed and pass arcKm. Each
// driver's own arcs are the ones among her kept tasks, re-checked at
// her speed.
func (in *Instance) SharedArcs() int {
	fits := in.fitsMarket()
	order := make([]int, 0, len(in.Tasks))
	for m := range in.Tasks {
		if fits[m] {
			order = append(order, m)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return in.Tasks[order[i]].StartBy < in.Tasks[order[j]].StartBy })
	n := 0
	for i, a := range order {
		for _, b := range order[i+1:] {
			if _, _, ok := in.arcKm(a, b); ok {
				n++
			}
		}
	}
	return n
}
