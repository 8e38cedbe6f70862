package sim

import (
	"fmt"
	"sort"

	"repro/internal/matching"
)

// closeBatchDense is the pre-decomposition window solve — one dense
// Hungarian instance over the whole window — kept as the oracle
// closeBatchSparse is differentially tested against. It was production
// code behind an exported Engine.DenseWindows switch until the window got
// a second production way to build its rows; tests install it through
// Engine.windowOracle (runBatchedWith).
func (e *Engine) closeBatchDense(r *eventRun, batch []int, decisionAt float64) {
	w, arrivals, union := buildDenseWindow(e, r, batch, decisionAt)

	asg, err := matching.Hungarian(w)
	if err != nil {
		// The matrix is rectangular by construction.
		panic(fmt.Sprintf("sim: batch matching failed: %v", err))
	}

	for bi, ti := range batch {
		j := asg.ColOf[bi]
		if j < 0 {
			r.res.Rejected++
			if r.onDecided != nil {
				r.onDecided(TaskDecision{Task: ti, Driver: -1, At: decisionAt})
			}
			continue
		}
		drv := union[j]
		r.assignTask(ti, Candidate{Driver: drv, Arrival: arrivals[bi][j], Margin: w[bi][j]}, r.tasks[ti])
		if r.onDecided != nil {
			r.onDecided(TaskDecision{Task: ti, Assigned: true, Driver: drv, PickupAt: arrivals[bi][j], At: decisionAt})
		}
	}
}

// buildDenseWindow is the oracle's weight matrix for one window, with
// the pickup arrivals beside it and the drivers its columns stand for.
//
// The matrix is compacted in two canonical steps. First, each row keeps
// only its top len(batch) candidates by (margin, then driver index),
// found here by a full sort of the full list — exact for the reason
// topRow gives. Second, columns shrink to the union of the surviving
// drivers in ascending order. Carrying the whole fleet instead would
// make the Hungarian reduction O((batch+fleet)³) — hours at 50k drivers
// for a matrix whose decisive columns number a few dozen. Every candidate
// source produces the identical candidate sets (the differential
// contract) and both steps are deterministic, so results stay
// bit-identical across sources.
func buildDenseWindow(e *Engine, r *eventRun, batch []int, decisionAt float64) (w, arrivals [][]float64, union []int) {
	// Per-task candidate sets — pruned to the decisive top — and the
	// sorted union of their drivers.
	cands := make([][]Candidate, len(batch))
	inUnion := make(map[int]bool)
	var buf []Candidate
	for bi, ti := range batch {
		buf = e.source.Candidates(r.tasks[ti], decisionAt, buf[:0])
		cs := append([]Candidate(nil), buf...)
		if len(cs) > len(batch) {
			sort.Slice(cs, func(a, b int) bool {
				if cs[a].Margin != cs[b].Margin {
					return cs[a].Margin > cs[b].Margin
				}
				return cs[a].Driver < cs[b].Driver
			})
			cs = cs[:len(batch)]
		}
		cands[bi] = cs
		for _, c := range cs {
			if !inUnion[c.Driver] {
				inUnion[c.Driver] = true
				union = append(union, c.Driver)
			}
		}
	}
	sort.Ints(union)
	col := make(map[int]int, len(union)) // driver -> compact column
	for j, drv := range union {
		col[drv] = j
	}

	// Rows = batch tasks, cols = candidate drivers; margins δ_{n,m} at
	// decision time, Forbidden where infeasible.
	w = make([][]float64, len(batch))
	arrivals = make([][]float64, len(batch))
	for bi := range batch {
		w[bi] = make([]float64, len(union))
		arrivals[bi] = make([]float64, len(union))
		for j := range w[bi] {
			w[bi][j] = matching.Forbidden
		}
		for _, c := range cands[bi] {
			j := col[c.Driver]
			w[bi][j] = c.Margin
			arrivals[bi][j] = c.Arrival
		}
	}
	return w, arrivals, union
}
