package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/matching"
	"repro/internal/model"
)

// This file implements batched dispatch: the "non-heuristic" online
// algorithm direction the paper's conclusion leaves as future work.
// Instead of answering each order the instant it arrives, the platform
// accumulates the orders of a short window (a few seconds to a minute in
// production systems) and solves a maximum-weight assignment between the
// batch and the candidate drivers. Each batch trades a bounded increase
// in response time for globally better matches than the per-task greedy
// heuristics of §V.
//
// Over the event loop, the first arrival with no close pending opens a
// batch and schedules an internal batch-close event window seconds
// later; arrivals accumulate until it fires. The close event sorts
// before any arrival at the same instant, so a batch spans exactly
// [head, head+window) of publish time. Rider cancellations landing
// inside the window remove the order from the open batch before it is
// matched; the window stays anchored at the order that opened it, so a
// cancellation never changes when other orders are decided.
//
// The window state lives in a batcher that wires itself onto an
// eventRun's mode hooks, so the same machinery backs both the
// drain-to-completion entry points (RunBatched*) and the open-loop
// streaming API (Engine.NewBatchedStream): a batch run is just a
// batched stream that enqueues the whole day upfront.

// BatchAlgorithm names the window solver. There is one, the exact
// sparse Hungarian solve of closeBatchSparse, and nothing selects it.
//
// Deprecated: only the argument of NewBatchedStream, which the frozen
// benchmark/ still passes, and the name the CLI prints.
type BatchAlgorithm int

// BatchHungarian is the only BatchAlgorithm.
const BatchHungarian BatchAlgorithm = 0

// String implements fmt.Stringer.
func (a BatchAlgorithm) String() string {
	if a == BatchHungarian {
		return "batched(hungarian)"
	}
	return fmt.Sprintf("BatchAlgorithm(%d)", int(a))
}

// BatchStats summarizes one closed dispatch window.
type BatchStats struct {
	// OpenedAt is the publish time of the order that opened the window;
	// ClosedAt the decision instant, OpenedAt + window.
	OpenedAt float64
	ClosedAt float64
	// Submitted counts the orders that joined the window; Cancelled the
	// ones riders withdrew before the close. The remaining
	// Submitted − Cancelled orders were matched (Matched) or left
	// without a feasible profitable driver (Rejected).
	Submitted int
	Cancelled int
	Matched   int
	Rejected  int
}

// batcher holds the open-window state of one batched run and installs
// the mode hooks interpreting arrivals, batch closes and mid-window
// cancellations. closeAt tracks the pending batch-close event (NaN when
// none): the window is anchored at the arrival that opened it and stays
// anchored even if cancellations empty the batch before it closes —
// otherwise a stale close would fire early on the next batch.
type batcher struct {
	r      *eventRun
	window float64

	batch     []int
	openedAt  float64
	closeAt   float64
	cancelled int // orders removed from the open window by their riders

	// onClose, when set, receives each closed window's stats right
	// after its decisions committed; the streaming API forwards them to
	// the service feed.
	onClose func(BatchStats)
}

// newBatcher wires batched-window dispatch onto the run. The window
// must be positive: the public boundaries (dispatch options, CLI flags)
// validate user input, so a non-positive window here is an internal
// programming error.
func newBatcher(r *eventRun, window float64) *batcher {
	if !(window > 0) || math.IsInf(window, 1) {
		panic(fmt.Sprintf("sim: non-positive batch window %g", window))
	}
	b := &batcher{r: r, window: window, closeAt: math.NaN()}
	r.onArrival = b.arrival
	r.onBatchClose = b.close
	r.cancelPending = b.cancelPending
	return b
}

// open reports whether a window is currently accumulating orders.
func (b *batcher) open() bool { return !math.IsNaN(b.closeAt) }

func (b *batcher) arrival(ev event) {
	if !b.open() {
		b.openedAt = ev.At
		b.closeAt = ev.At + b.window
		b.cancelled = 0
		b.r.push(event{Key: b.closeAt, Kind: evBatchClose, At: b.closeAt})
	}
	b.batch = append(b.batch, ev.Idx)
}

func (b *batcher) close(ev event) {
	stats := BatchStats{
		OpenedAt:  b.openedAt,
		ClosedAt:  ev.At,
		Submitted: len(b.batch) + b.cancelled,
		Cancelled: b.cancelled,
	}
	before := b.r.res.Rejected
	b.r.e.closeBatch(b.r, b.batch, ev.At)
	stats.Rejected = b.r.res.Rejected - before
	stats.Matched = len(b.batch) - stats.Rejected
	b.batch = b.batch[:0]
	b.closeAt = math.NaN()
	if b.onClose != nil {
		b.onClose(stats)
	}
}

func (b *batcher) cancelPending(ti int) bool {
	for k, v := range b.batch {
		if v == ti {
			b.batch = append(b.batch[:k], b.batch[k+1:]...)
			b.cancelled++
			return true
		}
	}
	return false
}

// RunBatchedScenario simulates the day with batched dispatch: tasks are
// grouped into consecutive windows of `window` seconds by publish time;
// at each window's end the engine solves a maximum-weight task–driver
// assignment over the marginal values δ_{n,m} (Eq. 14), assigning at most
// one task per driver per batch. Margins ≤ 0 are never assigned
// (individual rationality), and tasks that found no driver are rejected —
// they are real-time orders and cannot wait for the next batch. Dynamic
// market events (driver churn, rider cancellations) are interleaved into
// the arrival stream with the same semantics as RunScenario; pass nil for
// a day without them.
func (e *Engine) RunBatchedScenario(tasks []model.Task, events []model.MarketEvent, window float64) Result {
	r := e.mustOpen(tasks, events, true)
	newBatcher(r, window)
	return r.day(publishKey)
}

// closeBatch solves the maximum-weight assignment for one batch at its
// decision time and commits the matches, reporting each order's outcome
// through the run's decision hook when one is installed.
//
// There is one window solve, closeBatchSparse: the window as a sparse
// candidate graph, split into connected task–driver components, each
// solved independently by internal/matching's sparse Hungarian over
// pooled scratch, so a steady-state window costs no allocations. The
// pre-decomposition dense solve it replaced is a test oracle now
// (closeBatchDense in dense_test.go, installed through windowOracle):
// both commit an exact maximum-weight assignment, bit-identical whenever
// the window's optimum is unique — the window differential tests sweep
// exactly that, and the per-window audit proves equal weight even on the
// degenerate windows where several exact optima tie bitwise (orders
// lying on a driver's route home cost zero margin for every such driver)
// and each commits its own canonical optimum.
func (e *Engine) closeBatch(r *eventRun, batch []int, decisionAt float64) {
	if len(batch) == 0 {
		return // every order of the window was cancelled
	}
	if e.auditHook != nil {
		e.auditHook(r, batch, decisionAt)
	}
	if e.windowOracle != nil {
		e.windowOracle(r, batch, decisionAt)
		return
	}
	e.closeBatchSparse(r, batch, decisionAt)
}

// ranksBefore is the strict order a window row is pruned under: higher
// margin first, lower driver index on equal margins. No two candidates
// of a row share a driver, so the order is total.
func ranksBefore(a, b Candidate) bool {
	if a.Margin != b.Margin {
		return a.Margin > b.Margin
	}
	return a.Driver < b.Driver
}

// selectTop rearranges row so that its first k entries are the k that
// rank first, in no particular order — a quickselect, linear where a
// full sort of the row is not. The order is total, so the set kept is
// the one a sort would keep.
func selectTop(row []Candidate, k int) {
	lo, hi := 0, len(row)-1
	for lo < hi {
		// Median of three as the pivot, moved to the end.
		mid := lo + (hi-lo)/2
		if ranksBefore(row[mid], row[lo]) {
			row[mid], row[lo] = row[lo], row[mid]
		}
		if ranksBefore(row[hi], row[lo]) {
			row[hi], row[lo] = row[lo], row[hi]
		}
		if ranksBefore(row[mid], row[hi]) {
			row[mid], row[hi] = row[hi], row[mid]
		}
		pivot, p := row[hi], lo
		for i := lo; i < hi; i++ {
			if ranksBefore(row[i], pivot) {
				row[i], row[p] = row[p], row[i]
				p++
			}
		}
		row[p], row[hi] = row[hi], row[p]
		// row[lo:p] rank before the pivot at p, row[p+1:hi+1] after it.
		switch {
		case p == k || p == k-1:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// topRow is the reference construction of a window row, for any source:
// query the full candidate list onto the tail of arena, drop the
// non-positive margins (individual rationality bars them from every
// assignment), keep the k that rank first, and put those back in
// ascending driver order. k is the number of orders in the window, and a
// maximum-weight matching never needs more of a row: if an optimal
// matching used an edge outside a row's top k, at least one of the k
// higher-ranked drivers is unmatched (only k−1 other rows exist) and an
// exchange to her keeps the total — so pruning is exact, not
// approximate, and keeps the solve from carrying the whole fleet.
// GridSource.TopRow builds the same row without scoring everyone.
func topRow(src CandidateSource, task model.Task, now float64, k int, arena []Candidate) []Candidate {
	start := len(arena)
	arena = src.Candidates(task, now, arena)
	keep := start
	for _, c := range arena[start:] {
		if c.Margin > 0 {
			arena[keep] = c
			keep++
		}
	}
	arena = arena[:keep]
	if row := arena[start:]; len(row) > k {
		selectTop(row, k)
		arena = arena[:start+k]
		sortByDriver(arena[start:])
	}
	return arena
}

// sortByDriver restores the canonical ascending driver order of a row.
func sortByDriver(row []Candidate) {
	slices.SortFunc(row, func(a, b Candidate) int { return a.Driver - b.Driver })
}

// windowScratch is the batcher's pooled per-window working set. One
// instance lives on the engine and is reused across every window of
// every batched run, so the steady-state hot path — candidate arena,
// driver→column maps, the CSR edge arrays and the solver's own scratch
// — never touches the allocator. Per-driver arrays are epoch-stamped
// instead of cleared: bumping epoch invalidates the whole map
// in O(1), and entries for drivers added mid-stream (AddDriver) carry
// epoch 0, which is never current.
type windowScratch struct {
	arena  []Candidate // kept candidate edges, row spans concatenated
	rowPtr []int       // len batch+1: row spans into arena, reused as CSR RowPtr

	epoch    int
	colEpoch []int // driver -> epoch the driver was last seen
	colIdx   []int // driver -> compact column, valid when colEpoch is current
	union    []int // compact column -> driver, ascending

	col []int     // CSR column ids, parallel to arena
	w   []float64 // CSR margins
	arr []float64 // per-edge pickup arrival times

	solver matching.SparseSolver
}

// closeBatchSparse is the window solve: the window as a sparse candidate
// graph, decomposed into connected components and solved exactly per
// component by internal/matching's sparse Hungarian.
//
// The graph is compacted in three canonical, exact steps: candidates
// with non-positive margin are dropped, each row keeps its top
// len(batch) by (margin, driver) — see topRow for both — and columns are
// renumbered over the ascending union of the surviving drivers. The
// source builds each row (CandidateSource.TopRow): GridSource scores only
// the drivers who could be in it, ScanSource goes through topRow.
// Rows are laid out in batch order and each row's edges in ascending
// driver order, so the solve is deterministic and the commit loop below
// replays decisions in batch order — which is what keeps both candidate
// sources, both ways of building a row and the dense oracle
// bit-identical.
func (e *Engine) closeBatchSparse(r *eventRun, batch []int, decisionAt float64) {
	ws := e.winScratch
	if ws == nil {
		ws = &windowScratch{}
		e.winScratch = ws
	}
	for len(ws.colEpoch) < len(e.Drivers) {
		ws.colEpoch = append(ws.colEpoch, 0)
		ws.colIdx = append(ws.colIdx, 0)
	}
	ws.epoch++

	ws.arena = ws.arena[:0]
	ws.rowPtr = append(ws.rowPtr[:0], 0)
	ws.union = ws.union[:0]
	for _, ti := range batch {
		start := len(ws.arena)
		ws.arena = e.source.TopRow(r.tasks[ti], decisionAt, len(batch), ws.arena)
		for _, c := range ws.arena[start:] {
			if ws.colEpoch[c.Driver] != ws.epoch {
				ws.colEpoch[c.Driver] = ws.epoch
				ws.union = append(ws.union, c.Driver)
			}
		}
		ws.rowPtr = append(ws.rowPtr, len(ws.arena))
	}
	slices.Sort(ws.union)
	for j, drv := range ws.union {
		ws.colIdx[drv] = j
	}

	// CSR edge arrays over the compact column space. Ascending driver
	// order within a row maps to ascending column ids because the
	// renumbering is monotone.
	ws.col = ws.col[:0]
	ws.w = ws.w[:0]
	ws.arr = ws.arr[:0]
	for _, c := range ws.arena {
		ws.col = append(ws.col, ws.colIdx[c.Driver])
		ws.w = append(ws.w, c.Margin)
		ws.arr = append(ws.arr, c.Arrival)
	}
	sp := matching.Sparse{
		Rows: len(batch), Cols: len(ws.union),
		RowPtr: ws.rowPtr, Col: ws.col, W: ws.w,
	}

	colOf, _, _, err := ws.solver.Solve(sp)
	if err != nil {
		// The CSR is well-formed by construction.
		panic(fmt.Sprintf("sim: batch matching failed: %v", err))
	}

	for bi, ti := range batch {
		j := colOf[bi]
		if j < 0 {
			r.res.Rejected++
			if r.onDecided != nil {
				r.onDecided(TaskDecision{Task: ti, Driver: -1, At: decisionAt})
			}
			continue
		}
		k := ws.rowPtr[bi]
		for ws.col[k] != j {
			k++
		}
		drv := ws.union[j]
		r.assignTask(ti, Candidate{Driver: drv, Arrival: ws.arr[k], Margin: ws.w[k]}, r.tasks[ti])
		if r.onDecided != nil {
			r.onDecided(TaskDecision{Task: ti, Assigned: true, Driver: drv, PickupAt: ws.arr[k], At: decisionAt})
		}
	}
}
