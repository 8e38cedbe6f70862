// Package taskmap builds the paper's task maps (§III-B) the dense way:
// per-driver directed acyclic graphs whose nodes are tasks plus the
// driver's source (label 0) and destination (label −1), and whose arcs
// encode "driver n can take task m' in time after finishing task m"
// (Eqs. 1–3), with the longest-path (maximum profit) dynamic program
// over each of them.
//
// It is the differential oracle of the tests, and only tests import it:
// every solver reads the compiled offline.Instance, and the parity
// tests hold that instance — its pairs, arcs, path values, greedy and
// exact optima — to this package's plain O(N·M) per-driver tables and
// O(M²) shared arcs.
//
// Arc structure is shared across drivers: the inter-task feasibility
// condition l_{m,m'} ≤ t̄−_{m'} − t̄+_m depends only on the market speed,
// while per-driver feasibility (reachability from the driver's source and
// return to her destination, Eqs. 2–3) is kept in per-driver tables.
// A driver slower than the market re-checks each shared arc at her own
// speed (arcUsable); a faster one keeps the shared arcs, which
// under-approximates her map.
package taskmap

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/offline"
)

// None marks "no predecessor" in path reconstruction.
const None int32 = -1

// Graph is the merged task map of all drivers over one task set. It is
// immutable after construction and safe for concurrent readers.
type Graph struct {
	Market  model.Market
	Drivers []model.Driver
	Tasks   []model.Task

	// Order holds task indices sorted by StartBy ascending: a valid
	// topological order, since every arc m→m' satisfies
	// t̄−_{m'} ≥ t̄+_m > t̄−_m.
	Order []int32

	// Preds[m] lists the task indices m' with a shared arc m'→m;
	// PredCosts[m][k] holds the deadhead cost c_{m'ₖ,m} of that arc and
	// PredDists[m][k] its deadhead distance in kilometers (used to
	// re-check arc timing for drivers with a speed override).
	Preds     [][]int32
	PredCosts [][]float64
	PredDists [][]float64

	// Succs[m] lists the task indices reachable by a shared arc m→m'.
	Succs [][]int32

	// Value[m] = p_m − ĉ_m: the margin of serving task m, before
	// deadhead costs (driver-independent: price and gasoline cost).
	Value []float64

	// Per-driver tables, indexed [driver][task]:
	//   feasible: ĥ_{n,m} ∧ return-home condition of Eqs. (2)–(3)
	//   srcOK:    driver can reach the pickup from her source in time
	//   srcCost:  c_{n,0,m}, cost from driver source to task source
	//   snkCost:  c_{n,m,−1}, cost from task destination to driver dest
	feasible [][]bool
	srcOK    [][]bool
	srcCost  [][]float64
	snkCost  [][]float64

	// Baseline[n] = c_{n,0,−1}: the driver's no-task travel cost,
	// credited back in the objective (Eq. 4).
	Baseline []float64

	arcCount int
}

// New constructs the merged task map for the given market instance.
// Construction is O(N·M + M²), matching the paper's O(N·M²) bound with
// the shared-arc optimization. It returns an error if the instance fails
// validation.
func New(m model.Market, drivers []model.Driver, tasks []model.Task) (*Graph, error) {
	if err := model.ValidateAll(m, drivers, tasks); err != nil {
		return nil, fmt.Errorf("taskmap: %w", err)
	}
	g := &Graph{
		Market:  m,
		Drivers: append([]model.Driver(nil), drivers...),
		Tasks:   append([]model.Task(nil), tasks...),
	}
	g.buildOrder()
	g.buildValues()
	g.buildSharedArcs()
	g.buildDriverTables()
	return g, nil
}

// M returns the number of tasks, N the number of drivers.
func (g *Graph) M() int { return len(g.Tasks) }

// N returns the number of drivers.
func (g *Graph) N() int { return len(g.Drivers) }

// ArcCount returns the number of shared inter-task arcs.
func (g *Graph) ArcCount() int { return g.arcCount }

// Feasible reports whether task m is feasible for driver n: the service
// fits the task window (Eq. 1) and the driver can still reach her own
// destination after finishing it (the return clause of Eqs. 2–3).
func (g *Graph) Feasible(n, m int) bool { return g.feasible[n][m] }

// SourceReachable reports whether driver n can reach task m's pickup
// from her source by the pickup deadline (the reach clause of Eq. 2).
func (g *Graph) SourceReachable(n, m int) bool { return g.srcOK[n][m] }

// SourceCost returns c_{n,0,m} and SinkCost returns c_{n,m,−1}.
func (g *Graph) SourceCost(n, m int) float64 { return g.srcCost[n][m] }

// SinkCost returns the travel cost from task m's destination to driver
// n's destination.
func (g *Graph) SinkCost(n, m int) float64 { return g.snkCost[n][m] }

// HasArc reports whether the shared arc m→m' exists (both tasks pass the
// market-speed window checks and the deadhead fits between them). This is
// the driver-independent part of Eq. (3).
func (g *Graph) HasArc(m, mp int) bool {
	for _, p := range g.Preds[mp] {
		if int(p) == m {
			return true
		}
	}
	return false
}

// DriverArc reports whether driver n can drive the arc m→mp: the shared
// arc exists and, for a slower speed override, her deadhead still fits
// the gap between the two tasks.
func (g *Graph) DriverArc(n, m, mp int) bool {
	for k, p := range g.Preds[mp] {
		if int(p) == m {
			return g.arcUsable(mp, k, g.Drivers[n].SpeedKmh)
		}
	}
	return false
}

// arcUsable reports whether the k-th predecessor arc into task m is
// usable at the given driving speed: shared arcs are built at the
// market-wide speed, so a driver with a slower override must re-check
// that her deadhead still fits the inter-task gap (Eq. 3). speedKmh ≤ 0
// or ≥ the market speed needs no re-check for slower-driver safety, and
// faster overrides only make more arcs feasible than the shared graph
// records (a documented under-approximation).
func (g *Graph) arcUsable(m, k int, speedKmh float64) bool {
	if speedKmh <= 0 || speedKmh >= g.Market.SpeedKmh {
		return true
	}
	p := g.Preds[m][k]
	gap := g.Tasks[m].StartBy - g.Tasks[p].EndBy
	return g.PredDists[m][k]/speedKmh*3600 <= gap+timeEps
}

func (g *Graph) buildOrder() {
	g.Order = make([]int32, len(g.Tasks))
	for i := range g.Order {
		g.Order[i] = int32(i)
	}
	tasks, order := g.Tasks, g.Order
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if tasks[a].StartBy != tasks[b].StartBy {
			return tasks[a].StartBy < tasks[b].StartBy
		}
		return a < b
	})
}

func (g *Graph) buildValues() {
	g.Value = make([]float64, len(g.Tasks))
	for i, t := range g.Tasks {
		g.Value[i] = t.Price - g.Market.ServiceCost(t)
	}
}

// serviceFits implements Eq. (1) at market speed: ĥ_m.
func (g *Graph) serviceFits(t model.Task) bool {
	return g.Market.ServiceTime(t, 0) <= t.EndBy-t.StartBy+timeEps
}

// timeEps absorbs floating-point noise in deadline comparisons.
const timeEps = 1e-9

func (g *Graph) buildSharedArcs() {
	mCount := len(g.Tasks)
	g.Preds = make([][]int32, mCount)
	g.PredCosts = make([][]float64, mCount)
	g.PredDists = make([][]float64, mCount)
	g.Succs = make([][]int32, mCount)

	fits := make([]bool, mCount)
	for i, t := range g.Tasks {
		fits[i] = g.serviceFits(t)
	}

	// Tasks in topological (StartBy) order; an arc a→b needs
	// t̄−_b ≥ t̄+_a, so only pairs with EndBy_a ≤ StartBy_b are checked.
	for ia := 0; ia < mCount; ia++ {
		a := int(g.Order[ia])
		if !fits[a] {
			continue
		}
		ta := g.Tasks[a]
		for ib := ia + 1; ib < mCount; ib++ {
			b := int(g.Order[ib])
			if !fits[b] {
				continue
			}
			tb := g.Tasks[b]
			gap := tb.StartBy - ta.EndBy
			if gap < -timeEps {
				continue
			}
			if g.Market.TravelTime(ta.Dest, tb.Source, 0) <= gap+timeEps {
				g.Preds[b] = append(g.Preds[b], int32(a))
				g.PredCosts[b] = append(g.PredCosts[b], g.Market.DeadheadCost(ta, tb))
				g.PredDists[b] = append(g.PredDists[b], g.Market.Dist(ta.Dest, tb.Source))
				g.Succs[a] = append(g.Succs[a], int32(b))
				g.arcCount++
			}
		}
	}
}

func (g *Graph) buildDriverTables() {
	n := len(g.Drivers)
	mCount := len(g.Tasks)
	g.feasible = make([][]bool, n)
	g.srcOK = make([][]bool, n)
	g.srcCost = make([][]float64, n)
	g.snkCost = make([][]float64, n)
	g.Baseline = make([]float64, n)

	for i, d := range g.Drivers {
		g.feasible[i] = make([]bool, mCount)
		g.srcOK[i] = make([]bool, mCount)
		g.srcCost[i] = make([]float64, mCount)
		g.snkCost[i] = make([]float64, mCount)
		g.Baseline[i] = g.Market.BaselineCost(d)

		for j, t := range g.Tasks {
			// Eq. (1) at the driver's own speed.
			if g.Market.ServiceTime(t, d.SpeedKmh) > t.EndBy-t.StartBy+timeEps {
				continue
			}
			// Return clause of Eqs. (2)-(3): reach own destination
			// from the task's destination by t+_n.
			if g.Market.DriverTravelTime(d, t.Dest, d.Dest) > d.End-t.EndBy+timeEps {
				continue
			}
			g.feasible[i][j] = true
			g.snkCost[i][j] = g.Market.TravelCost(t.Dest, d.Dest)
			g.srcCost[i][j] = g.Market.TravelCost(d.Source, t.Source)
			// Reach clause of Eq. (2): source to pickup by t̄−_m,
			// departing no earlier than t−_n.
			if g.Market.DriverTravelTime(d, d.Source, t.Source) <= t.StartBy-d.Start+timeEps {
				g.srcOK[i][j] = true
			}
		}
	}
}

// Path is a driver's task list, the one path type of the solvers.
type Path = offline.Path

// BestPath computes the maximum-profit source→destination path for
// driver n over the alive tasks (alive == nil means all tasks). It
// returns an empty path with zero profit when no path has positive
// profit — taking no tasks is always feasible and costs nothing beyond
// the baseline, which the objective credits back (Eq. 4).
//
// The DP runs in O(V + E) over the topological order. adj, if non-nil,
// supplies per-node dual adjustments subtracted from each task's value
// (used by the LP pricing oracle); len(adj) must equal M.
func (g *Graph) BestPath(n int, alive []bool, adj []float64) Path {
	if n < 0 || n >= len(g.Drivers) {
		panic(fmt.Sprintf("taskmap: driver index %d out of range [0,%d)", n, len(g.Drivers)))
	}
	if alive != nil && len(alive) != len(g.Tasks) {
		panic(fmt.Sprintf("taskmap: alive mask length %d, want %d", len(alive), len(g.Tasks)))
	}
	if adj != nil && len(adj) != len(g.Tasks) {
		panic(fmt.Sprintf("taskmap: adjustment length %d, want %d", len(adj), len(g.Tasks)))
	}

	mCount := len(g.Tasks)
	best := make([]float64, mCount) // best profit of a path ending at m (before sink leg)
	prev := make([]int32, mCount)
	reach := make([]bool, mCount)

	feas := g.feasible[n]
	srcOK := g.srcOK[n]
	srcCost := g.srcCost[n]

	negInf := math.Inf(-1)
	for i := range best {
		best[i] = negInf
		prev[i] = None
	}

	for _, mi := range g.Order {
		m := int(mi)
		if !feas[m] || (alive != nil && !alive[m]) {
			continue
		}
		v := g.Value[m]
		if adj != nil {
			v -= adj[m]
		}
		cur := negInf
		var curPrev int32 = None
		if srcOK[m] {
			cur = -srcCost[m]
		}
		preds := g.Preds[m]
		costs := g.PredCosts[m]
		speed := g.Drivers[n].SpeedKmh
		for k, p := range preds {
			if !reach[p] || !g.arcUsable(m, k, speed) {
				continue
			}
			if c := best[p] - costs[k]; c > cur {
				cur = c
				curPrev = p
			}
		}
		if cur == negInf {
			continue
		}
		best[m] = cur + v
		prev[m] = curPrev
		reach[m] = true
	}

	// Close the path with the sink leg and the baseline credit.
	baseline := g.Baseline[n]
	snkCost := g.snkCost[n]
	bestEnd := -1
	bestProfit := 0.0
	for m := 0; m < mCount; m++ {
		if !reach[m] {
			continue
		}
		if r := best[m] - snkCost[m] + baseline; r > bestProfit {
			bestProfit = r
			bestEnd = m
		}
	}
	if bestEnd < 0 {
		return Path{Driver: n}
	}

	var rev []int
	for m := int32(bestEnd); m != None; m = prev[m] {
		rev = append(rev, int(m))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return Path{Driver: n, Tasks: rev, Profit: bestProfit}
}

// PathProfit recomputes the profit of the given task sequence for driver
// n from first principles (independent of the DP), returning an error if
// the sequence is not a feasible path in the driver's task map. It is the
// ground-truth valuation used by solution validation and tests.
func (g *Graph) PathProfit(n int, tasks []int) (float64, error) {
	if len(tasks) == 0 {
		return 0, nil
	}
	d := g.Drivers[n]
	first := tasks[0]
	if first < 0 || first >= len(g.Tasks) {
		return 0, fmt.Errorf("taskmap: task index %d out of range", first)
	}
	if !g.feasible[n][first] || !g.srcOK[n][first] {
		return 0, fmt.Errorf("taskmap: task %d not reachable from driver %d's source", first, n)
	}
	profit := -g.srcCost[n][first]
	for i, m := range tasks {
		if m < 0 || m >= len(g.Tasks) {
			return 0, fmt.Errorf("taskmap: task index %d out of range", m)
		}
		if !g.feasible[n][m] {
			return 0, fmt.Errorf("taskmap: task %d infeasible for driver %d", m, n)
		}
		profit += g.Value[m]
		if i > 0 {
			p := tasks[i-1]
			arcK := -1
			for k, pr := range g.Preds[m] {
				if int(pr) == p {
					arcK = k
					break
				}
			}
			if arcK < 0 {
				return 0, fmt.Errorf("taskmap: no arc %d→%d", p, m)
			}
			if !g.arcUsable(m, arcK, d.SpeedKmh) {
				return 0, fmt.Errorf("taskmap: arc %d→%d too tight for driver %d at %.1f km/h",
					p, m, n, d.SpeedKmh)
			}
			profit -= g.PredCosts[m][arcK]
		}
	}
	last := tasks[len(tasks)-1]
	profit -= g.snkCost[n][last]
	profit += g.Market.BaselineCost(d)
	return profit, nil
}

// Diameter returns D: the maximum number of task nodes on any single
// source→destination path in the merged graph. Every path belongs to
// exactly one driver (it runs from her source to her destination, on the
// arcs she can drive), so D is the longest chain of tasks that some one
// driver could serve — "the maximum number of possible tasks taken by a
// single driver during one working period" (§IV-C). The greedy
// algorithm's approximation ratio is 1/(D+1) (Theorem 1).
func (g *Graph) Diameter() int {
	mCount := len(g.Tasks)
	best := 0
	depth := make([]int, mCount)
	for n, drv := range g.Drivers {
		feas := g.feasible[n]
		srcOK := g.srcOK[n]
		for i := range depth {
			depth[i] = 0
		}
		for _, mi := range g.Order {
			m := int(mi)
			if !feas[m] {
				continue
			}
			d := 0
			if srcOK[m] {
				d = 1
			}
			for k, p := range g.Preds[m] {
				if depth[p] > 0 && depth[p]+1 > d && g.arcUsable(m, k, drv.SpeedKmh) {
					d = depth[p] + 1
				}
			}
			depth[m] = d
			if d > best {
				best = d
			}
		}
	}
	return best
}
