package offline

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/matching"
	"repro/internal/model"
)

// This file compiles the paper's task map (§III-B) of a market day:
// every offline solver — the greedy (Algorithm 1), Z*_f's column
// generation and Lagrangian bound, the replan dispatcher's snapshots
// and the sparse branch-and-bound of the hindsight oracle — reads the
// compiled Instance. It turns any trace — churn, cancellations, batched
// or instant dispatch — into a feasibility-correct offline assignment
// graph, keeping only the (task, driver) pairs that can appear on a
// path, in compressed-row (CSR) form, with the arcs among kept tasks
// stored once and each driver's own arcs as indices into them. The
// dense task map (bound's dense_test.go), O(N·M) per-driver tables
// plus O(M²) shared arcs, is kept only in tests, as the differential
// oracle the parity tests hold this compiler and its solvers to.
//
// Hindsight semantics. The offline optimum must answer "what could a
// clairvoyant dispatcher have earned on this day", so dynamic events
// tighten the dense task map's feasibility rules rather than disappear:
//
//   - A cancellation at time c bars any pickup after c: the pickup
//     deadline becomes PickupBar = min(StartBy, cancelAt), substituted
//     for StartBy in the source-reach clause (Eq. 2) and the inter-task
//     gap (Eq. 3). The service window (Eq. 1) and the dropoff deadline
//     keep using StartBy/EndBy — a served-in-time task is unaffected by
//     a cancellation that never fired.
//   - A mid-day join at time j delays the driver's effective shift
//     start: EffStart = max(Start, joinAt) replaces Start in the
//     source-reach clause. Before j the platform does not know the
//     driver exists, so no pickup can be scheduled to start earlier.
//   - A retirement at time r bars new assignments, not committed ones:
//     a driver is a candidate for an order only if the order was
//     published strictly before r (Publish < RetireAt). This matches
//     the engine, where an in-flight task is still completed.
//
// On an event-free trace every bar is vacuous (PickupBar = StartBy,
// EffStart = Start, RetireAt = +Inf) and the compiled instance is
// exactly the dense task map restricted to pairs that can appear on some
// path — the parity tests in bound's parity_test.go hold this bitwise.
//
// One conservative prefilter drops pairs with EffStart > PickupBar:
// such a pair can never be on a feasible path (as a first task the
// reach clause fails outright; as a successor of some first task a₀,
// PickupBar_m ≥ EndBy_a₀ − ε > PickupBar_a₀ − ε ≥ EffStart − 2ε), so
// removing it cannot change any solution. The ≤ is slack by 2ε to keep
// that argument airtight under float noise.

// Objective selects what the compiled instance's values and costs
// measure.
type Objective int

const (
	// ObjectiveProfit compiles the paper's Eq. 4 driver-profit
	// objective: task margins minus deadhead/source/sink legs plus the
	// baseline credit. Bitwise-comparable with the dense oracle's
	// PathProfit.
	ObjectiveProfit Objective = iota
	// ObjectiveRevenue compiles market revenue (Σ Price over served
	// tasks): values are raw prices and every cost and baseline is
	// zero, so the same solver maximizes revenue. This is the
	// competitive-ratio objective of the bench rail.
	ObjectiveRevenue
)

func (o Objective) String() string {
	switch o {
	case ObjectiveProfit:
		return "profit"
	case ObjectiveRevenue:
		return "revenue"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Options configures Compile.
type Options struct {
	Objective Objective

	// TopK = 0 compiles the exact instance: every pair that can appear
	// on some feasible path is kept. TopK > 0 compiles the rail
	// instance: per order, only the TopK individually-profitable
	// drivers (ranked by single-task profit, ties to the lower driver
	// index) plus any forced Keep pairs survive. The rail instance's
	// optimum is a lower bound on the true hindsight optimum — forced
	// pairs from the online policies keep it at or above every online
	// policy, so competitive ratios stay ≤ 1.
	TopK int

	// Keep lists (task index, driver index) pairs that must survive
	// rail pruning — typically the union of the online policies'
	// assignments, so their schedules stay representable. Pairs that
	// fail the hindsight feasibility rules are still dropped (and
	// counted in Stats.ForcedDropped).
	Keep [][2]int32

	// Workers bounds compile-time parallelism over the per-order
	// candidate scan and the per-task arc discovery. Values below 2
	// run serially. The output is identical for every worker count —
	// every task's row and arcs are found on their own.
	Workers int
}

// CompileStats records what the compiler kept and dropped.
type CompileStats struct {
	Pairs         int // candidate pairs kept
	ForcedKept    int // pairs kept only because of Options.Keep
	ForcedDropped int // Keep pairs that failed hindsight feasibility
	DroppedTopK   int // candidates cut by rail top-k pruning
	Arcs          int // per-driver inter-task arcs (DrvSucc entries)
	ActiveDrivers int // drivers with ≥ 1 kept pair (compact columns)
	Components    int
	LargestTasks  int // tasks in the largest component
	LargestSlots  int // pair slots in the largest component
}

// Instance is a compiled hindsight assignment graph. All slices are
// laid out flat; "slot" means one kept (task, driver) pair, the unit
// the per-driver views below are indexed by.
type Instance struct {
	Market  model.Market
	Drivers []model.Driver
	Tasks   []model.Task

	Objective Objective

	// Hindsight bars (see the file comment). PickupBar is per task;
	// EffStart/RetireAt are per original driver index.
	PickupBar []float64
	EffStart  []float64
	RetireAt  []float64

	// Value[m] is the objective margin collected on serving task m.
	Value []float64

	// Pairs is the kept candidate graph in CSR over rows = tasks and
	// cols = compact drivers; W holds the single-task profit used for
	// rail ranking. PairSlot maps a CSR position to its slot id.
	Pairs    matching.Sparse
	PairSlot []int32

	// DrvID maps a compact driver to its original index; CompactOf is
	// the inverse (-1 for drivers with no kept pair).
	DrvID     []int
	compactOf []int32

	// Per-driver slot view: compact driver d owns slots
	// DrvPtr[d]:DrvPtr[d+1]; DrvTask ascends within a driver. Costs
	// and the baseline are already objective-adjusted (all zero under
	// ObjectiveRevenue).
	DrvPtr     []int
	DrvTask    []int32
	DrvSrcOK   []bool
	DrvSrcCost []float64
	DrvSnkCost []float64
	Baseline   []float64

	// DrvTopo lists each driver's slots in topological (StartBy, index)
	// order, in the same DrvPtr segments.
	DrvTopo []int32

	// Shared arcs: task a's are ArcTo[ArcPtr[a]:ArcPtr[a+1]], the tasks
	// that can follow it on some driver's path (both ends kept for her),
	// in topological order, each with its deadhead cost ArcCost
	// (objective-adjusted).
	ArcPtr  []int
	ArcTo   []int32
	ArcCost []float64

	// Per-slot successor arcs: the shared arcs slot s's driver can take
	// on from it are DrvSucc[DrvSuccPtr[s]:DrvSuccPtr[s+1]], indices
	// into ArcTo/ArcCost in topological order of the target, mirroring
	// the dense map's Graph.Succs on the kept subset. The target task's
	// slot is the driver's own (MapSlots).
	DrvSuccPtr []int
	DrvSucc    []int32

	// Comp is the union-find decomposition of Pairs: component rows
	// are task indices, component cols compact drivers.
	Comp  matching.ComponentScratch
	NComp int

	Stats CompileStats
}

// timeEps absorbs floating-point noise in deadline comparisons.
const timeEps = 1e-9

// NDrv returns the compact driver count, NSlots the kept pair count.
func (in *Instance) NDrv() int   { return len(in.DrvID) }
func (in *Instance) NSlots() int { return len(in.DrvTask) }

// CompactOf returns the compact index of an original driver index, or
// -1 if the driver has no kept pair.
func (in *Instance) CompactOf(orig int) int {
	if orig < 0 || orig >= len(in.compactOf) {
		return -1
	}
	return int(in.compactOf[orig])
}

// Slot returns the slot id of (compact driver d, task m), or -1.
func (in *Instance) Slot(d, m int) int {
	lo, hi := in.DrvPtr[d], in.DrvPtr[d+1]
	i := lo + sort.Search(hi-lo, func(k int) bool { return int(in.DrvTask[lo+k]) >= m })
	if i < hi && int(in.DrvTask[i]) == m {
		return i
	}
	return -1
}

// SuccIndex returns the shared arc (an index into ArcTo and ArcCost)
// by which slot sa goes on to slot sb of the same driver, or -1 if her
// map has no such arc.
func (in *Instance) SuccIndex(sa, sb int) int {
	for _, k := range in.DrvSucc[in.DrvSuccPtr[sa]:in.DrvSuccPtr[sa+1]] {
		if in.ArcTo[k] == in.DrvTask[sb] {
			return int(k)
		}
	}
	return -1
}

// MapSlots writes compact driver d's slot of each task she keeps into
// slot, which has one entry per task, and leaves the other entries as
// they are: slot[ArcTo[k]] is then the target slot of each arc k of
// hers.
func (in *Instance) MapSlots(d int, slot []int32) {
	for s := in.DrvPtr[d]; s < in.DrvPtr[d+1]; s++ {
		slot[in.DrvTask[s]] = int32(s)
	}
}

// PathValue computes the objective value of the slot sequence for
// compact driver d, replicating the dense map's Graph.PathProfit
// accumulation order operation for operation so profit-mode values are
// bitwise comparable with the dense oracle. It errors if the sequence is
// not a path in the compiled graph.
func (in *Instance) PathValue(d int, slots []int32) (float64, error) {
	if len(slots) == 0 {
		return 0, nil
	}
	first := int(slots[0])
	if first < in.DrvPtr[d] || first >= in.DrvPtr[d+1] {
		return 0, fmt.Errorf("offline: slot %d not owned by driver %d", first, d)
	}
	if !in.DrvSrcOK[first] {
		return 0, fmt.Errorf("offline: task %d not reachable from driver %d's source", in.DrvTask[first], d)
	}
	value := -in.DrvSrcCost[first]
	for i, s := range slots {
		si := int(s)
		if si < in.DrvPtr[d] || si >= in.DrvPtr[d+1] {
			return 0, fmt.Errorf("offline: slot %d not owned by driver %d", si, d)
		}
		value += in.Value[in.DrvTask[si]]
		if i > 0 {
			k := in.SuccIndex(int(slots[i-1]), si)
			if k < 0 {
				return 0, fmt.Errorf("offline: no arc %d→%d for driver %d",
					in.DrvTask[slots[i-1]], in.DrvTask[si], d)
			}
			value -= in.ArcCost[k]
		}
	}
	value -= in.DrvSnkCost[int(slots[len(slots)-1])]
	value += in.Baseline[d]
	return value, nil
}

// candidate is one surviving (task, driver) pair during the scan.
type candidate struct {
	driver  int32 // original driver index
	srcOK   bool
	forced  bool
	srcCost float64 // real (profit-basis) costs; zeroed later for revenue
	snkCost float64
	rank    float64 // single-task profit, the rail ranking key
}

// Compile builds the hindsight instance for one trace under the given
// options. The trace must validate; Keep entries must be in range.
func Compile(market model.Market, tr model.Trace, opt Options) (*Instance, error) {
	if err := model.ValidateAll(market, tr.Drivers, tr.Tasks); err != nil {
		return nil, fmt.Errorf("offline: %w", err)
	}
	if err := model.ValidateEvents(tr.Events, tr.Drivers, tr.Tasks); err != nil {
		return nil, fmt.Errorf("offline: %w", err)
	}
	if opt.TopK < 0 {
		return nil, fmt.Errorf("offline: negative TopK %d", opt.TopK)
	}
	nDrv, nTask := len(tr.Drivers), len(tr.Tasks)
	for _, kp := range opt.Keep {
		if int(kp[0]) < 0 || int(kp[0]) >= nTask || int(kp[1]) < 0 || int(kp[1]) >= nDrv {
			return nil, fmt.Errorf("offline: keep pair (task %d, driver %d) out of range", kp[0], kp[1])
		}
	}

	in := &Instance{
		Market:    market,
		Drivers:   tr.Drivers,
		Tasks:     tr.Tasks,
		Objective: opt.Objective,
	}
	in.compileBars(tr.Events)
	in.compileValues()

	forced := make([][]int32, nTask) // per task, deduped forced driver list
	for _, kp := range opt.Keep {
		dup := false
		for _, f := range forced[kp[0]] {
			if f == kp[1] {
				dup = true
				break
			}
		}
		if !dup {
			forced[kp[0]] = append(forced[kp[0]], kp[1])
		}
	}

	// Per-order candidate scan (independent rows — parallelizable).
	rows := make([][]candidate, nTask)
	fitsMarket := in.fitsMarket()
	// The baseline credit is a per-driver constant; computing it once
	// here instead of per (task, driver) pair removes a distance call
	// from the scan's hot loop.
	baseCost := make([]float64, nDrv)
	for n, d := range tr.Drivers {
		baseCost[n] = market.BaselineCost(d)
	}
	dropped := make([]int, nTask)
	scan := func(m int) {
		rows[m] = in.scanOrder(m, fitsMarket, baseCost, forced[m], opt, rows[m])
		if opt.TopK > 0 {
			before := len(rows[m])
			rows[m] = pruneTopK(rows[m], opt.TopK)
			dropped[m] = before - len(rows[m])
		}
	}
	runChunks(opt.Workers, nTask, func(lo, hi int) {
		for m := lo; m < hi; m++ {
			scan(m)
		}
	})
	for m, d := range dropped {
		in.Stats.DroppedTopK += d
		found := 0
		for _, c := range rows[m] {
			if c.forced {
				found++
			}
		}
		in.Stats.ForcedDropped += len(forced[m]) - found
	}

	order := in.assemble(rows, opt)
	in.buildArcs(fitsMarket, order, opt)
	in.NComp = in.Comp.Decompose(in.Pairs)
	in.Stats.Components = in.NComp
	for c := 0; c < in.NComp; c++ {
		if n := in.Comp.RowPtr[c+1] - in.Comp.RowPtr[c]; n > in.Stats.LargestTasks {
			in.Stats.LargestTasks = n
		}
		slots := 0
		for _, col := range in.Comp.ColsByComp[in.Comp.ColPtr[c]:in.Comp.ColPtr[c+1]] {
			slots += in.DrvPtr[col+1] - in.DrvPtr[col]
		}
		if slots > in.Stats.LargestSlots {
			in.Stats.LargestSlots = slots
		}
	}
	return in, nil
}

// compileBars folds the event stream into the per-task and per-driver
// hindsight bars.
func (in *Instance) compileBars(events []model.MarketEvent) {
	in.PickupBar = make([]float64, len(in.Tasks))
	for m, t := range in.Tasks {
		in.PickupBar[m] = t.StartBy
	}
	in.EffStart = make([]float64, len(in.Drivers))
	in.RetireAt = make([]float64, len(in.Drivers))
	for n, d := range in.Drivers {
		in.EffStart[n] = d.Start
		in.RetireAt[n] = math.Inf(1)
	}
	for _, ev := range events {
		switch ev.Kind {
		case model.EventJoin:
			if ev.At > in.EffStart[ev.Driver] {
				in.EffStart[ev.Driver] = ev.At
			}
		case model.EventRetire:
			if ev.At < in.RetireAt[ev.Driver] {
				in.RetireAt[ev.Driver] = ev.At
			}
		case model.EventCancel:
			if ev.At < in.PickupBar[ev.Task] {
				in.PickupBar[ev.Task] = ev.At
			}
		}
	}
}

func (in *Instance) compileValues() {
	in.Value = make([]float64, len(in.Tasks))
	for m, t := range in.Tasks {
		if in.Objective == ObjectiveRevenue {
			in.Value[m] = t.Price
		} else {
			in.Value[m] = t.Price - in.Market.ServiceCost(t)
		}
	}
}

// scanOrder collects task m's surviving candidate drivers in ascending
// driver order. In exact mode (TopK = 0) every hindsight-feasible pair
// survives; in rail mode only individually-profitable source-reachable
// pairs compete for the top-k, plus the forced list.
func (in *Instance) scanOrder(m int, fitsMarket []bool, baseCost []float64, forcedDrivers []int32, opt Options, buf []candidate) []candidate {
	buf = buf[:0]
	t := in.Tasks[m]
	bar := in.PickupBar[m]
	// The profit-basis margin is the ranking key whatever the compile
	// objective: revenue-mode pruning still wants pairs a profit-seeking
	// platform would plausibly use.
	profitValue := t.Price - in.Market.ServiceCost(t)
	// The distance function dominates city-scale compiles, so each
	// surviving pair computes its two distances exactly once and derives
	// both the time check and the cost from the same value (the
	// expressions match Market.TravelTime / Market.TravelCost term for
	// term, so the results are bit-identical to the method calls).
	dist, gas, mktSpeed := in.Market.Dist, in.Market.GasPerKm, in.Market.SpeedKmh
	for n, d := range in.Drivers {
		eff := in.EffStart[n]
		// Cheap bar checks first; geometry only for survivors.
		if eff > bar+2*timeEps {
			continue // prefilter: can never be on a path (file comment)
		}
		if t.Publish >= in.RetireAt[n] {
			continue // retired before the order existed
		}
		if d.End-t.EndBy < -timeEps {
			continue // shift ends before the dropoff deadline
		}
		sp := d.SpeedKmh
		// Eq. (1) at the driver's own speed.
		if sp == 0 {
			if !fitsMarket[m] {
				continue
			}
			sp = mktSpeed
		} else {
			if in.Market.ServiceTime(t, sp) > t.EndBy-t.StartBy+timeEps {
				continue
			}
			if sp <= 0 {
				sp = mktSpeed
			}
		}
		// Return clause of Eqs. (2)-(3).
		retDist := dist(t.Dest, d.Dest)
		if retDist/sp*3600 > d.End-t.EndBy+timeEps {
			continue
		}
		srcDist := dist(d.Source, t.Source)
		srcOK := srcDist/sp*3600 <= bar-eff+timeEps
		isForced := false
		for _, f := range forcedDrivers {
			if int(f) == n {
				isForced = true
				break
			}
		}
		if opt.TopK > 0 && !srcOK && !isForced {
			continue // rail candidates must work standalone
		}
		srcCost := srcDist * gas
		snkCost := retDist * gas
		rank := profitValue - srcCost - snkCost + baseCost[n]
		if opt.TopK > 0 && !isForced && !(rank > 0) {
			continue // rail candidates must be individually profitable
		}
		buf = append(buf, candidate{
			driver: int32(n), srcOK: srcOK, forced: isForced,
			srcCost: srcCost, snkCost: snkCost, rank: rank,
		})
	}
	return buf
}

// pruneTopK keeps the k best candidates by (rank desc, driver asc) plus
// every forced candidate, preserving ascending driver order. cands is
// already driver-ascending, so admitting cutoff ties first-come keeps
// the earlier driver on rank ties.
func pruneTopK(cands []candidate, k int) []candidate {
	free := 0
	for _, c := range cands {
		if !c.forced {
			free++
		}
	}
	if free <= k {
		return cands
	}
	// A size-k min-heap of the largest free ranks replaces a full sort:
	// the multiset of the k largest values is unique, so the cutoff and
	// the tie budget come out identical at O(free·log k).
	heap := make([]float64, 0, k)
	for _, c := range cands {
		if c.forced {
			continue
		}
		r := c.rank
		if len(heap) < k {
			heap = append(heap, r)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if heap[p] <= heap[i] {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			continue
		}
		if r <= heap[0] {
			continue
		}
		heap[0] = r
		for i := 0; ; {
			c := 2*i + 1
			if c >= k {
				break
			}
			if rc := c + 1; rc < k && heap[rc] < heap[c] {
				c = rc
			}
			if heap[i] <= heap[c] {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	cutoff := heap[0]
	tieBudget := k
	for _, r := range heap {
		if r > cutoff {
			tieBudget--
		}
	}
	out := make([]candidate, 0, k)
	for _, c := range cands {
		switch {
		case c.forced:
			out = append(out, c)
		case c.rank > cutoff:
			out = append(out, c)
		case c.rank == cutoff && tieBudget > 0:
			out = append(out, c)
			tieBudget--
		}
	}
	return out
}

// assemble lays the per-task candidate rows out as the pair CSR, the
// compact driver set, and the per-driver slot view, and returns the
// tasks in topological order.
func (in *Instance) assemble(rows [][]candidate, opt Options) []int32 {
	nTask, nDrv := len(in.Tasks), len(in.Drivers)
	revenue := in.Objective == ObjectiveRevenue

	// Compact the touched drivers, ascending original index.
	in.compactOf = make([]int32, nDrv)
	for n := range in.compactOf {
		in.compactOf[n] = -1
	}
	nnz := 0
	for _, row := range rows {
		nnz += len(row)
		for _, c := range row {
			in.compactOf[c.driver] = 0
		}
	}
	for n := 0; n < nDrv; n++ {
		if in.compactOf[n] == 0 {
			in.compactOf[n] = int32(len(in.DrvID))
			in.DrvID = append(in.DrvID, n)
		}
	}
	nc := len(in.DrvID)
	in.Stats.ActiveDrivers = nc
	in.Stats.Pairs = nnz

	in.Pairs = matching.Sparse{
		Rows:   nTask,
		Cols:   nc,
		RowPtr: make([]int, nTask+1),
		Col:    make([]int, 0, nnz),
		W:      make([]float64, 0, nnz),
	}
	in.PairSlot = make([]int32, nnz)
	in.DrvPtr = make([]int, nc+1)
	for m, row := range rows {
		in.Pairs.RowPtr[m+1] = in.Pairs.RowPtr[m] + len(row)
		for _, c := range row {
			in.Pairs.Col = append(in.Pairs.Col, int(in.compactOf[c.driver]))
			in.Pairs.W = append(in.Pairs.W, c.rank)
			in.DrvPtr[in.compactOf[c.driver]+1]++
			if c.forced && (opt.TopK > 0 && !(c.srcOK && c.rank > 0)) {
				in.Stats.ForcedKept++
			}
		}
	}
	for d := 1; d <= nc; d++ {
		in.DrvPtr[d] += in.DrvPtr[d-1]
	}

	in.DrvTask = make([]int32, nnz)
	in.DrvSrcOK = make([]bool, nnz)
	in.DrvSrcCost = make([]float64, nnz)
	in.DrvSnkCost = make([]float64, nnz)
	cursor := make([]int, nc)
	copy(cursor, in.DrvPtr[:nc])
	k := 0
	for m, row := range rows {
		for _, c := range row {
			d := int(in.compactOf[c.driver])
			s := cursor[d]
			cursor[d]++
			in.DrvTask[s] = int32(m)
			in.DrvSrcOK[s] = c.srcOK
			if !revenue {
				in.DrvSrcCost[s] = c.srcCost
				in.DrvSnkCost[s] = c.snkCost
			}
			in.PairSlot[k] = int32(s)
			k++
		}
	}
	in.Baseline = make([]float64, nc)
	if !revenue {
		for d, orig := range in.DrvID {
			in.Baseline[d] = in.Market.BaselineCost(in.Drivers[orig])
		}
	}

	// Topological slot order per driver, derived from the global
	// (StartBy, index) order exactly as the dense map's Graph.buildOrder
	// sorts it.
	order := make([]int32, nTask)
	for i := range order {
		order[i] = int32(i)
	}
	tasks := in.Tasks
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if tasks[a].StartBy != tasks[b].StartBy {
			return tasks[a].StartBy < tasks[b].StartBy
		}
		return a < b
	})
	in.DrvTopo = make([]int32, nnz)
	copy(cursor, in.DrvPtr[:nc])
	for _, mi := range order {
		m := int(mi)
		for p := in.Pairs.RowPtr[m]; p < in.Pairs.RowPtr[m+1]; p++ {
			d := in.Pairs.Col[p]
			in.DrvTopo[cursor[d]] = in.PairSlot[p]
			cursor[d]++
		}
	}
	return order
}

// buildArcs lays out the task map's arcs among the kept pairs in two
// tables. The shared one holds each arc a→b that some driver keeps both
// ends of: both tasks fit at the market speed and the pair passes
// arcKm, one distance for all the drivers who keep it, a's targets in
// topological order. The per-slot one holds, for each slot of a, the
// shared arcs its driver can take: to tasks she keeps, re-checked at
// her own speed if she is slower than the market — the dense map's arcs
// and their Succs order on the kept subset, in 4 bytes each. The global
// shared-arc loop would be O(M²) ≈ 70M arcs at 12k orders; the drivers'
// Σ|T_d|² pairs over rail-pruned drivers are orders of magnitude fewer.
func (in *Instance) buildArcs(fits []bool, order []int32, opt Options) {
	nTask, nnz := len(in.Tasks), len(in.DrvTask)
	revenue := in.Objective == ObjectiveRevenue
	rank := make([]int32, nTask)
	for i, m := range order {
		rank[m] = int32(i)
	}
	// topoAt[s] is slot s's place in DrvTopo; later(d, s) lists the
	// slots after it in its driver d's topological order.
	topoAt := make([]int, nnz)
	for i, s := range in.DrvTopo {
		topoAt[s] = i
	}
	later := func(d int, s int32) []int32 { return in.DrvTopo[topoAt[s]+1 : in.DrvPtr[d+1]] }

	to := make([][]int32, nTask)
	km := make([][]float64, nTask)
	gap := make([][]float64, nTask)
	runChunks(opt.Workers, nTask, func(lo, hi int) {
		seen := make([]bool, nTask)
		var cand, chunkTo []int32
		var chunkKm, chunkGap []float64
		for a := lo; a < hi; a++ {
			if !fits[a] {
				continue
			}
			cand = cand[:0]
			for p := in.Pairs.RowPtr[a]; p < in.Pairs.RowPtr[a+1]; p++ {
				for _, sb := range later(in.Pairs.Col[p], in.PairSlot[p]) {
					if b := in.DrvTask[sb]; fits[b] && !seen[b] {
						seen[b] = true
						cand = append(cand, b)
					}
				}
			}
			slices.SortFunc(cand, func(x, y int32) int { return cmp.Compare(rank[x], rank[y]) })
			start := len(chunkTo)
			for _, b := range cand {
				seen[b] = false
				if k, g, ok := in.arcKm(a, int(b)); ok {
					chunkTo = append(chunkTo, b)
					chunkKm = append(chunkKm, k)
					chunkGap = append(chunkGap, g)
				}
			}
			to[a], km[a], gap[a] = chunkTo[start:], chunkKm[start:], chunkGap[start:]
		}
	})
	in.ArcPtr = make([]int, nTask+1)
	for a := range to {
		in.ArcPtr[a+1] = in.ArcPtr[a] + len(to[a])
	}
	in.ArcTo = make([]int32, 0, in.ArcPtr[nTask])
	in.ArcCost = make([]float64, in.ArcPtr[nTask])
	for a := range to {
		in.ArcTo = append(in.ArcTo, to[a]...)
		if !revenue {
			for j, k := range km[a] {
				in.ArcCost[in.ArcPtr[a]+j] = in.Market.TravelCostKm(k)
			}
		}
	}

	// A slot's arcs go only to the later slots of its driver whose
	// tasks fit, so the per-slot table is made once with that many
	// places per slot (1.05–1.12× the arcs on generated 1 000-order
	// days); each slot fills its own places, and one pass in slot order
	// then closes the gaps.
	ptr := make([]int, nnz+1)
	for d := range in.DrvID {
		n := 0
		topo := in.DrvTopo[in.DrvPtr[d]:in.DrvPtr[d+1]]
		for i := len(topo) - 1; i >= 0; i-- {
			if s := topo[i]; fits[in.DrvTask[s]] {
				ptr[s+1] = n
				n++
			}
		}
	}
	for s := 1; s <= nnz; s++ {
		ptr[s] += ptr[s-1]
	}
	succ := make([]int32, ptr[nnz])
	deg := make([]int, nnz)
	runChunks(opt.Workers, nTask, func(lo, hi int) {
		arcTo := make([]int32, nTask) // the shared arc from a to each task, plus one
		for a := lo; a < hi; a++ {
			base := in.ArcPtr[a]
			for j, b := range to[a] {
				arcTo[b] = int32(base + j + 1)
			}
			for p := in.Pairs.RowPtr[a]; p < in.Pairs.RowPtr[a+1]; p++ {
				d, sa := in.Pairs.Col[p], in.PairSlot[p]
				speed := in.Drivers[in.DrvID[d]].SpeedKmh
				slow := speed > 0 && speed < in.Market.SpeedKmh
				w := ptr[sa]
				for _, sb := range later(d, sa) {
					k := int(arcTo[in.DrvTask[sb]]) - 1
					// Slower speed overrides re-check the deadhead
					// against the barred gap, mirroring the dense
					// map's Graph.arcUsable.
					if k < 0 || (slow && km[a][k-base]/speed*3600 > gap[a][k-base]+timeEps) {
						continue
					}
					succ[w] = int32(k)
					w++
				}
				deg[sa] = w - ptr[sa]
			}
			for _, b := range to[a] {
				arcTo[b] = 0
			}
		}
	})
	n := 0
	for s := 0; s < nnz; s++ {
		lo := ptr[s]
		ptr[s] = n
		n += copy(succ[n:], succ[lo:lo+deg[s]])
	}
	ptr[nnz] = n
	in.DrvSuccPtr, in.DrvSucc = ptr, succ[:n]
	in.Stats.Arcs = n
}

// fitsMarket reports, per task, whether its service fits its window at
// the market speed (Eq. 1), as both ends of a shared arc must.
func (in *Instance) fitsMarket() []bool {
	fits := make([]bool, len(in.Tasks))
	for m, t := range in.Tasks {
		fits[m] = in.Market.ServiceTime(t, 0) <= t.EndBy-t.StartBy+timeEps
	}
	return fits
}

// arcKm is the rest of the shared-arc test a→b (Eq. 3): the deadhead
// from a's dropoff to b's pickup fits, at the market speed, in the gap
// between a's dropoff deadline and b's pickup bar. It returns the
// deadhead's length and the gap; the expressions are TravelTime's and
// DeadheadCost's term for term, so one distance gives their bits.
func (in *Instance) arcKm(a, b int) (km, gap float64, ok bool) {
	gap = in.PickupBar[b] - in.Tasks[a].EndBy
	if gap < -timeEps {
		return 0, gap, false
	}
	km = in.Market.Dist(in.Tasks[a].Dest, in.Tasks[b].Source)
	return km, gap, in.Market.TravelTimeKm(km, 0) <= gap+timeEps
}

// runChunks splits the indices 0..n-1 into one contiguous chunk per
// worker and applies fn to each, concurrently when workers > 1, so fn
// can keep scratch for its chunk. Chunks are disjoint and in order, so
// writers touch disjoint cache lines.
func runChunks(workers, n int, fn func(lo, hi int)) {
	if workers < 2 || n < 2 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		lo := min(w*chunk, n)
		hi := min(lo+chunk, n)
		go func() {
			fn(lo, hi)
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
