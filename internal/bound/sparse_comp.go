package bound

// Per-component machinery of the sparse oracle solver: path
// enumeration in the dense oracle's order, the warm/greedy incumbent, LP
// reduced-cost fixing, the BruteForce-parity branch and bound, and the
// Lagrangian fallback for components too large to enumerate.

import (
	"math"

	"repro/internal/lp"
	"repro/internal/offline"
)

// solveComp solves component c into s.compRes[c].
func (s *SparseSolver) solveComp(in *offline.Instance, opt *SparseOptions, c int) {
	sc := &s.scratch
	res := &s.compRes[c]
	*res = compResult{firstRec: len(sc.chosenRecs), exact: true}
	cols := in.Comp.ColsByComp[in.Comp.ColPtr[c]:in.Comp.ColPtr[c+1]]
	rows := in.Comp.RowsByComp[in.Comp.RowPtr[c]:in.Comp.RowPtr[c+1]]
	if len(cols) == 0 {
		return // a task no driver can reach
	}

	warmVal := sc.warmComp(in, cols, opt.Warm, res)
	greedyVal := 0.0
	for i := range cols {
		if _, v, ok := sc.incumbent(in, cols, i, false); ok {
			greedyVal += v
		}
	}
	// Incumbent: the better of the online warm assignment and the
	// offline greedy; ties keep the warm one.
	inc, incWarm := warmVal, true
	if greedyVal > warmVal {
		inc, incWarm = greedyVal, false
	}

	if !sc.enumerateComp(in, cols, opt.PathCap) {
		// Too big to enumerate: keep the incumbent, bound the gap.
		res.exact = false
		res.objective = sc.emitIncumbent(in, cols, incWarm, res)
		ub := sc.lagrangeComp(in, cols, rows, inc)
		ub += 1e-7 * (1 + math.Abs(ub))
		if ub < res.objective {
			ub = res.objective
		}
		res.ub = ub
		return
	}

	if opt.LP && len(sc.paths) > 0 &&
		len(cols)+len(rows) <= lpMaxRows && len(sc.paths) <= lpMaxCols {
		sc.lpFix(in, cols, rows, inc, incWarm, res)
	}

	obj, aborted := sc.branchAndBound(in, cols, res, opt.NodeCap, inc, incWarm)
	res.objective = obj
	if aborted {
		res.exact = false
		ub := sc.lagrangeComp(in, cols, rows, obj)
		ub += 1e-7 * (1 + math.Abs(ub))
		if ub < obj {
			ub = obj
		}
		res.ub = ub
		return
	}
	res.ub = obj
}

// enumerateComp fills sc.paths / sc.pathSlots / sc.drvPathPtr with each
// component driver's positive-value paths, in exactly the order the
// dense oracle's EnumeratePaths visits them (first tasks in natural task
// order, then successors in topo order, pre-order). Returns false if a
// cap blew.
func (sc *sparseScratch) enumerateComp(in *offline.Instance, cols []int, pathCap int) bool {
	sc.paths = sc.paths[:0]
	sc.pathSlots = sc.pathSlots[:0]
	sc.drvPathPtr = grow(sc.drvPathPtr, len(cols)+1)
	sc.drvPathPtr[0] = 0
	sc.slot = grow(sc.slot, len(in.Tasks))
	for i, d := range cols {
		enumerated := 0
		in.MapSlots(d, sc.slot)
		for si := in.DrvPtr[d]; si < in.DrvPtr[d+1]; si++ {
			if !in.DrvSrcOK[si] {
				continue
			}
			acc := -in.DrvSrcCost[si]
			acc += in.Value[in.DrvTask[si]]
			sc.frames = sc.frames[:0]
			sc.frames = append(sc.frames, dfsFrame{slot: int32(si), k: int32(in.DrvSuccPtr[si]), acc: acc})
			for len(sc.frames) > 0 {
				top := len(sc.frames) - 1
				f := &sc.frames[top]
				if f.k == int32(in.DrvSuccPtr[int(f.slot)]) {
					// First visit: record the prefix ending here.
					enumerated++
					if enumerated > pathCap || len(sc.paths) > compPathCap {
						return false
					}
					r := f.acc - in.DrvSnkCost[f.slot]
					r += in.Baseline[d]
					if r > 0 {
						off := int32(len(sc.pathSlots))
						for j := 0; j <= top; j++ {
							sc.pathSlots = append(sc.pathSlots, sc.frames[j].slot)
						}
						sc.paths = append(sc.paths, pathRec{off: off, n: int32(top + 1), value: r})
					}
				}
				if int(f.k) < in.DrvSuccPtr[int(f.slot)+1] {
					arc := in.DrvSucc[f.k]
					child := sc.slot[in.ArcTo[arc]]
					acc2 := f.acc + in.Value[in.DrvTask[child]]
					acc2 -= in.ArcCost[arc]
					f.k++
					sc.frames = append(sc.frames, dfsFrame{slot: child, k: int32(in.DrvSuccPtr[child]), acc: acc2})
					continue
				}
				sc.frames = sc.frames[:top]
			}
		}
		sc.drvPathPtr[i+1] = int32(len(sc.paths))
	}
	return true
}

// warmComp validates the online assignment's paths for the component's
// drivers against the compiled hindsight graph and stores the
// survivors. Returns their left-associated value, drivers ascending.
// Restores sc.used to all false.
func (sc *sparseScratch) warmComp(in *offline.Instance, cols []int, warm [][]int, res *compResult) float64 {
	nd := len(cols)
	sc.wOff = grow(sc.wOff, nd)
	sc.wLen = grow(sc.wLen, nd)
	sc.wVal = grow(sc.wVal, nd)
	sc.wSlots = sc.wSlots[:0]
	total := 0.0
	for i, d := range cols {
		sc.wLen[i] = -1
		orig := in.DrvID[d]
		if orig >= len(warm) || len(warm[orig]) == 0 {
			continue
		}
		tasks := warm[orig]
		off := int32(len(sc.wSlots))
		ok := true
		for _, m := range tasks {
			slot := in.Slot(d, m)
			if slot < 0 || sc.used[m] {
				ok = false
				break
			}
			sc.wSlots = append(sc.wSlots, int32(slot))
		}
		if ok {
			slots := sc.wSlots[off:]
			v, err := in.PathValue(d, slots)
			if err != nil || !(v > 0) {
				ok = false
			} else {
				sc.wOff[i] = off
				sc.wLen[i] = int32(len(slots))
				sc.wVal[i] = v
				total += v
				for _, slot := range slots {
					sc.used[in.DrvTask[slot]] = true
				}
			}
		}
		if !ok {
			sc.wSlots = sc.wSlots[:off]
			res.warmDrop++
		} else {
			res.warmKept++
		}
	}
	for i := 0; i < nd; i++ {
		if sc.wLen[i] >= 0 {
			for _, slot := range sc.wSlots[sc.wOff[i] : sc.wOff[i]+sc.wLen[i]] {
				sc.used[in.DrvTask[slot]] = false
			}
		}
	}
	return total
}

// incumbent returns the component's i-th driver's incumbent path: her
// warm one (warm) or the greedy's pick, re-valued by PathValue so that
// it compares with enumerated path values.
func (sc *sparseScratch) incumbent(in *offline.Instance, cols []int, i int, warm bool) ([]int32, float64, bool) {
	if warm {
		if sc.wLen[i] < 0 {
			return nil, 0, false
		}
		return sc.wSlots[sc.wOff[i] : sc.wOff[i]+sc.wLen[i]], sc.wVal[i], true
	}
	slots, v, ok := sc.greedy.Pick(cols[i])
	if ok {
		if pv, err := in.PathValue(cols[i], slots); err == nil {
			v = pv
		}
	}
	return slots, v, ok
}

// emitIncumbent copies the warm (incWarm) or greedy incumbent into the
// worker's chosen arena and returns its left-associated value.
func (sc *sparseScratch) emitIncumbent(in *offline.Instance, cols []int, incWarm bool, res *compResult) float64 {
	total := 0.0
	for i, d := range cols {
		slots, v, ok := sc.incumbent(in, cols, i, incWarm)
		if !ok {
			continue
		}
		off := int32(len(sc.chosenSlots))
		sc.chosenSlots = append(sc.chosenSlots, slots...)
		sc.chosenRecs = append(sc.chosenRecs, chosenRec{
			driver: int32(d), off: off, n: int32(len(slots)), value: v,
		})
		res.nRecs++
		total += v
	}
	return total
}

// lpFix solves the component's path-packing LP relaxation, warm-started
// from the incumbent's columns, and fixes out every path whose reduced
// cost proves it cannot appear in a solution beating the incumbent. The
// 1e-6 slack absorbs simplex dual tolerance, so surviving optima are
// untouched and BruteForce parity is preserved.
func (sc *sparseScratch) lpFix(in *offline.Instance, cols, rows []int, inc float64, incWarm bool, res *compResult) {
	nd, nv := len(cols), len(sc.paths)
	for li, m := range rows {
		sc.taskRow[m] = int32(nd + li)
	}
	prob := lp.NewProblem(nv)
	for i := 0; i < nd+len(rows); i++ {
		prob.AddRow(1)
	}
	for i := 0; i < nd; i++ {
		for pi := sc.drvPathPtr[i]; pi < sc.drvPathPtr[i+1]; pi++ {
			p := sc.paths[pi]
			prob.SetObjective(int(pi), p.value)
			prob.SetCoeff(i, int(pi), 1)
			for _, slot := range sc.pathSlots[p.off : p.off+p.n] {
				prob.SetCoeff(int(sc.taskRow[in.DrvTask[slot]]), int(pi), 1)
			}
		}
	}
	// Crash basis: the incumbent's columns, located by slot-sequence
	// match within each driver's enumeration block.
	sc.warmCols = sc.warmCols[:0]
	for i := 0; i < nd; i++ {
		want, _, ok := sc.incumbent(in, cols, i, incWarm)
		if !ok {
			continue
		}
		for pi := sc.drvPathPtr[i]; pi < sc.drvPathPtr[i+1]; pi++ {
			p := sc.paths[pi]
			if p.n != int32(len(want)) {
				continue
			}
			same := true
			for j, slot := range sc.pathSlots[p.off : p.off+p.n] {
				if slot != want[j] {
					same = false
					break
				}
			}
			if same {
				sc.warmCols = append(sc.warmCols, int(pi))
				break
			}
		}
	}
	sol, err := sc.lps.SolveWarm(prob, sc.warmCols)
	if err != nil || sol.Status != lp.Optimal {
		return
	}
	res.lpSolved++
	zlp := sol.Objective
	fixTol := 1e-6 * (1 + math.Abs(inc))
	sc.drop = grow(sc.drop, nv)
	fixed := 0
	for i := 0; i < nd; i++ {
		for pi := sc.drvPathPtr[i]; pi < sc.drvPathPtr[i+1]; pi++ {
			p := sc.paths[pi]
			red := p.value - sol.Duals[i]
			for _, slot := range sc.pathSlots[p.off : p.off+p.n] {
				red -= sol.Duals[sc.taskRow[in.DrvTask[slot]]]
			}
			sc.drop[pi] = zlp+red < inc-fixTol
			if sc.drop[pi] {
				fixed++
			}
		}
	}
	if fixed == 0 {
		return
	}
	res.lpFixed = fixed
	// Compact the per-driver path lists in place, preserving order.
	// Segments stay contiguous, so each driver's new start doubles as
	// the previous driver's end.
	out := 0
	for i := 0; i < nd; i++ {
		start := out
		for pi := int(sc.drvPathPtr[i]); pi < int(sc.drvPathPtr[i+1]); pi++ {
			if !sc.drop[pi] {
				sc.paths[out] = sc.paths[pi]
				out++
			}
		}
		sc.drvPathPtr[i] = int32(start)
	}
	sc.drvPathPtr[nd] = int32(out)
	sc.paths = sc.paths[:out]
}

// bbState carries the branch-and-bound recursion without closures so
// the steady-state re-solve path stays allocation-free.
type bbState struct {
	in      *offline.Instance
	sc      *sparseScratch
	cols    []int
	nd      int
	best    float64
	margin  float64
	nodes   int
	cap     int
	aborted bool
}

// branchAndBound reproduces BruteForce's recursion on the component:
// drivers ascending, skip-first, paths in enumeration order, strict
// improvement at the leaves — plus sound suffix/value pruning that can
// never cut a strict improvement, so objective AND argmax match the
// brute force bit for bit. A search that exhausts nodeCap aborts with
// whatever it has; if that beats the incumbent it is emitted anyway
// (still a feasible solution), otherwise the incumbent is kept.
func (sc *sparseScratch) branchAndBound(in *offline.Instance, cols []int, res *compResult, nodeCap int, inc float64, incWarm bool) (float64, bool) {
	nd := len(cols)
	sc.suffix = grow(sc.suffix, nd+1)
	sc.suffix[nd] = 0
	for i := nd - 1; i >= 0; i-- {
		maxv := 0.0
		for pi := sc.drvPathPtr[i]; pi < sc.drvPathPtr[i+1]; pi++ {
			if v := sc.paths[pi].value; v > maxv {
				maxv = v
			}
		}
		sc.suffix[i] = sc.suffix[i+1] + maxv
	}
	sc.choice = grow(sc.choice, nd)
	sc.bestChoice = grow(sc.bestChoice, nd)
	for i := 0; i < nd; i++ {
		sc.bestChoice[i] = -1
	}
	bb := bbState{
		in: in, sc: sc, cols: cols, nd: nd,
		margin: 1e-9 * (1 + sc.suffix[0]),
		cap:    nodeCap,
	}
	bb.rec(0, 0)
	res.nodes += bb.nodes
	if bb.aborted && !(bb.best > inc) {
		return sc.emitIncumbent(in, cols, incWarm, res), true
	}
	// Emit the winning choice ascending by driver.
	total := 0.0
	for i := 0; i < nd; i++ {
		pi := sc.bestChoice[i]
		if pi < 0 {
			continue
		}
		p := sc.paths[pi]
		off := int32(len(sc.chosenSlots))
		sc.chosenSlots = append(sc.chosenSlots, sc.pathSlots[p.off:p.off+p.n]...)
		sc.chosenRecs = append(sc.chosenRecs, chosenRec{
			driver: int32(cols[i]), off: off, n: p.n, value: p.value,
		})
		res.nRecs++
		total += p.value
	}
	return total, bb.aborted
}

func (b *bbState) rec(i int, total float64) {
	if b.aborted {
		return
	}
	b.nodes++
	if b.nodes > b.cap {
		b.aborted = true
		return
	}
	sc := b.sc
	if i == b.nd {
		if total > b.best {
			b.best = total
			copy(sc.bestChoice[:b.nd], sc.choice[:b.nd])
		}
		return
	}
	if total+sc.suffix[i] < b.best-b.margin {
		return
	}
	sc.choice[i] = -1
	b.rec(i+1, total)
	for pi := sc.drvPathPtr[i]; pi < sc.drvPathPtr[i+1]; pi++ {
		p := sc.paths[pi]
		slots := sc.pathSlots[p.off : p.off+p.n]
		ok := true
		for _, slot := range slots {
			if sc.used[b.in.DrvTask[slot]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if total+p.value+sc.suffix[i+1] < b.best-b.margin {
			continue
		}
		for _, slot := range slots {
			sc.used[b.in.DrvTask[slot]] = true
		}
		sc.choice[i] = pi
		b.rec(i+1, total+p.value)
		for _, slot := range slots {
			sc.used[b.in.DrvTask[slot]] = false
		}
	}
	sc.choice[i] = -1
}

// lagrangeComp computes a subgradient upper bound on the component's
// integral optimum: L(λ) = Σ_m λ_m + Σ_d max(0, bestpath_d(λ)) is valid
// for every λ ≥ 0. lb (the incumbent) steers the step size. Restores
// nothing — λ and grad are component-local and re-seeded next call.
func (sc *sparseScratch) lagrangeComp(in *offline.Instance, cols, rows []int, lb float64) float64 {
	for _, m := range rows {
		sc.lambda[m] = 0
	}
	bestL := math.Inf(1)
	theta := 2.0
	noImp := 0
	for it := 0; it < lagIters; it++ {
		L := 0.0
		for _, m := range rows {
			L += sc.lambda[m]
			sc.grad[m] = 1
		}
		for _, d := range cols {
			v, end := sc.dp.Best(in, d, sc.lambda)
			if v > 0 {
				L += v
				for s := end; s >= 0; s = sc.dp.Prev(s) {
					sc.grad[in.DrvTask[s]]--
				}
			}
		}
		if L < bestL {
			bestL = L
			noImp = 0
		} else {
			noImp++
			if noImp >= 10 {
				theta /= 2
				noImp = 0
			}
		}
		gnorm := 0.0
		for _, m := range rows {
			g := float64(sc.grad[m])
			gnorm += g * g
		}
		if gnorm == 0 {
			break
		}
		step := theta * (L - lb) / gnorm
		if !(step > 0) {
			break
		}
		for _, m := range rows {
			nl := sc.lambda[m] - step*float64(sc.grad[m])
			if nl < 0 {
				nl = 0
			}
			sc.lambda[m] = nl
		}
	}
	return bestL
}
