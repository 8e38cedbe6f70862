package bound

// The oracle-rail solver: a warm-started, component-decomposed branch
// and bound over a compiled offline.Instance. Where BruteForce walks
// the dense taskmap, this solver works per connected component of the
// hindsight pair graph, enumerating only each component's per-driver
// positive-value paths, pruning with suffix bounds and (optionally) LP
// reduced-cost fixing against the incumbent, and falling back to a
// Lagrangian upper bound on components too big to enumerate. On small
// instances it reproduces BruteForce bit for bit — same enumeration
// order, same strict-improvement rule, same left-associated sums — so
// the brute-force solver stays the differential oracle. Components are
// solved one after another on the calling goroutine: a city day's pair
// graph is a few small components around one giant, and a fan-out over
// them measured no gain (EXPERIMENTS.md).

import (
	"fmt"

	"repro/internal/lp"
	"repro/internal/offline"
	"repro/internal/taskmap"
)

// SparseOptions configures SparseSolver.Solve. The zero value solves
// with BruteForce's path cap and no LP pruning.
type SparseOptions struct {
	// Warm holds one task list per ORIGINAL driver index (the shape of
	// sim.Result.DriverPaths): the online policy's own assignment.
	// Paths that are infeasible in hindsight, overlap an earlier
	// driver's warm path, or have non-positive value are dropped and
	// counted. The surviving set seeds each component's incumbent and
	// the LP crash basis.
	Warm [][]int

	// PathCap bounds per-driver path enumeration (BruteForce's 5000
	// when ≤ 0). A component over it or over compPathCap is not
	// enumerated: it keeps the incumbent and reports a Lagrangian upper
	// bound.
	PathCap int

	// LP enables a per-component root LP (path-packing relaxation,
	// warm-started from the incumbent columns) whose reduced costs fix
	// out columns that cannot beat the incumbent. Components larger
	// than lpMaxRows rows or lpMaxCols path columns skip the LP.
	LP bool

	// NodeCap bounds the branch-and-bound nodes spent per component
	// (default 5e6). A component that exhausts it keeps the better of
	// the best solution found so far and the incumbent, turns inexact,
	// and reports a Lagrangian upper bound. The abort point depends
	// only on the component's own deterministic node order.
	NodeCap int

	// SkipPaths suppresses Solution.Paths materialization; with LP off
	// the re-solve path then allocates nothing in steady state.
	SkipPaths bool
}

// The oracle's fixed limits.
const (
	// compPathCap bounds a component's total kept paths.
	compPathCap = 200000
	// lpMaxRows (tasks+drivers) and lpMaxCols (path columns) bound the
	// components that get a root LP.
	lpMaxRows = 256
	lpMaxCols = 2048
	// lagIters bounds the subgradient iterations of the fallback upper
	// bound.
	lagIters = 60
)

// SparseSolution is the solver's result. TaskDriver aliases a solver
// arena — valid until the next Solve.
type SparseSolution struct {
	Objective  float64
	UpperBound float64 // ≥ Objective; equal when Exact
	Exact      bool    // every component solved to optimality

	Components      int
	ExactComponents int
	Nodes           int64 // B&B nodes over all components

	WarmKept    int // warm paths that survived hindsight validation
	WarmDropped int
	LPSolved    int // component root LPs solved to optimality
	LPFixed     int // path columns fixed out by reduced cost

	// Paths lists the chosen paths in ascending original-driver order
	// (BruteForce's order); nil under SkipPaths. TaskDriver maps each
	// task to its serving original driver, or -1.
	Paths      []taskmap.Path
	TaskDriver []int32
}

// SparseSolver holds the reusable arenas. The zero value is ready;
// buffers grow to the high-water mark and are reused across solves.
type SparseSolver struct {
	scratch sparseScratch
	compRes []compResult

	taskDriver []int32
	drvVal     []float64
	drvHas     []bool
}

type pathRec struct {
	off, n int32 // slots in scratch.pathSlots
	value  float64
}

type chosenRec struct {
	driver int32 // compact driver
	off, n int32 // slots in scratch.chosenSlots
	value  float64
}

type compResult struct {
	objective float64 // left-assoc over the comp's drivers ascending
	ub        float64
	exact     bool
	nodes     int
	firstRec  int
	nRecs     int
	lpSolved  int
	lpFixed   int
	warmKept  int
	warmDrop  int
}

type dfsFrame struct {
	slot int32
	k    int32 // next successor-arc cursor
	acc  float64
}

type sparseScratch struct {
	// enumeration (per component)
	frames     []dfsFrame
	paths      []pathRec
	pathSlots  []int32
	drvPathPtr []int32

	// branch and bound (per component)
	suffix             []float64
	choice, bestChoice []int32
	used               []bool // sized M, all-false invariant between uses
	bb                 bbState

	// per-driver DP (sized NSlots)
	cur   []float64
	prevS []int32

	// greedy incumbent (per component)
	dead   []bool // sized M, all-false invariant
	gOff   []int32
	gLen   []int32
	gVal   []float64
	gDone  []bool
	gSlots []int32

	// warm incumbent (per component)
	wOff   []int32
	wLen   []int32
	wVal   []float64
	wSlots []int32

	// Lagrangian fallback
	lambda []float64 // sized M, comp rows reset before use
	grad   []int     // sized M, comp rows reset before use

	// LP root
	lps      lp.Solver
	warmCols []int
	drop     []bool
	taskRow  []int32 // sized M, comp rows reset before use

	// chosen output, persists across the solve's components
	chosenSlots []int32
	chosenRecs  []chosenRec
}

// grow returns s resized to n elements. It reallocates only when the
// capacity is short, keeping the contents up to the old capacity, and
// never shrinks.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		s = append(s[:cap(s)], make(S, n-cap(s))...)
	}
	return s[:n]
}

// Solve computes the hindsight optimum of the compiled instance.
func (s *SparseSolver) Solve(in *offline.Instance, opt SparseOptions) (SparseSolution, error) {
	if in == nil {
		return SparseSolution{}, fmt.Errorf("bound: nil instance")
	}
	if opt.PathCap <= 0 {
		opt.PathCap = 5000
	}
	if opt.NodeCap <= 0 {
		opt.NodeCap = 5_000_000
	}

	ncomp := in.NComp
	m, nslots := len(in.Tasks), in.NSlots()
	sc := &s.scratch
	sc.used = grow(sc.used, m)
	sc.dead = grow(sc.dead, m)
	for i := 0; i < m; i++ {
		sc.used[i] = false
		sc.dead[i] = false
	}
	sc.cur = grow(sc.cur, nslots)
	sc.prevS = grow(sc.prevS, nslots)
	sc.lambda = grow(sc.lambda, m)
	sc.grad = grow(sc.grad, m)
	sc.taskRow = grow(sc.taskRow, m)
	sc.chosenSlots = sc.chosenSlots[:0]
	sc.chosenRecs = sc.chosenRecs[:0]
	if cap(s.compRes) < ncomp {
		s.compRes = append(s.compRes[:cap(s.compRes)], make([]compResult, ncomp-cap(s.compRes))...)
	}
	s.compRes = s.compRes[:ncomp]

	for c := 0; c < ncomp; c++ {
		s.solveComp(in, &opt, c)
	}

	return s.merge(in, &opt)
}

// merge folds the per-component results into the global solution in
// component order, re-accumulating the objective over compact drivers
// ascending — the same interleaving BruteForce's recursion uses.
func (s *SparseSolver) merge(in *offline.Instance, opt *SparseOptions) (SparseSolution, error) {
	m, ndrv := len(in.Tasks), in.NDrv()
	s.taskDriver = grow(s.taskDriver, m)
	for i := 0; i < m; i++ {
		s.taskDriver[i] = -1
	}
	s.drvVal = grow(s.drvVal, ndrv)
	s.drvHas = grow(s.drvHas, ndrv)
	for d := 0; d < ndrv; d++ {
		s.drvHas[d] = false
	}

	sc := &s.scratch
	sol := SparseSolution{Exact: true, Components: in.NComp, TaskDriver: s.taskDriver}
	gap := 0.0 // Σ (ub − incumbent) over inexact components
	for c := range s.compRes {
		res := &s.compRes[c]
		if !res.exact {
			gap += res.ub - res.objective
		}
		sol.Nodes += int64(res.nodes)
		sol.LPSolved += res.lpSolved
		sol.LPFixed += res.lpFixed
		sol.WarmKept += res.warmKept
		sol.WarmDropped += res.warmDrop
		if res.exact {
			sol.ExactComponents++
		} else {
			sol.Exact = false
		}
		for r := res.firstRec; r < res.firstRec+res.nRecs; r++ {
			rec := sc.chosenRecs[r]
			s.drvVal[rec.driver] = rec.value
			s.drvHas[rec.driver] = true
			orig := int32(in.DrvID[rec.driver])
			for _, slot := range sc.chosenSlots[rec.off : rec.off+rec.n] {
				s.taskDriver[in.DrvTask[slot]] = orig
			}
		}
	}
	for d := 0; d < ndrv; d++ {
		if s.drvHas[d] {
			sol.Objective += s.drvVal[d]
		}
	}
	// The bound is the objective plus the inexact components' gaps, so
	// an all-exact solve reports UpperBound == Objective bit for bit.
	sol.UpperBound = sol.Objective + gap
	if !opt.SkipPaths {
		for d := 0; d < ndrv; d++ {
			if !s.drvHas[d] {
				continue
			}
			// Find the rec again (component of driver d).
			c := in.Comp.CompOfCol[d]
			res := &s.compRes[c]
			for r := res.firstRec; r < res.firstRec+res.nRecs; r++ {
				rec := sc.chosenRecs[r]
				if int(rec.driver) != d {
					continue
				}
				tasks := make([]int, rec.n)
				for i, slot := range sc.chosenSlots[rec.off : rec.off+rec.n] {
					tasks[i] = int(in.DrvTask[slot])
				}
				sol.Paths = append(sol.Paths, taskmap.Path{
					Driver: in.DrvID[d], Tasks: tasks, Profit: rec.value,
				})
				break
			}
		}
	}
	return sol, nil
}
