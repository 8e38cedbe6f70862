package bound

// Per-component machinery of the sparse oracle solver: path
// enumeration in EnumeratePaths' order, the warm/greedy incumbent, LP
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
	greedyVal := sc.greedyComp(in, cols, rows)
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
// component driver's positive-value paths, in exactly the order
// EnumeratePaths visits them (first tasks in natural task order, then
// successors in topo order, pre-order). Returns false if a cap blew.
func (sc *sparseScratch) enumerateComp(in *offline.Instance, cols []int, pathCap int) bool {
	sc.paths = sc.paths[:0]
	sc.pathSlots = sc.pathSlots[:0]
	sc.drvPathPtr = grow(sc.drvPathPtr, len(cols)+1)
	sc.drvPathPtr[0] = 0
	for i, d := range cols {
		enumerated := 0
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
					child := in.DrvSucc[f.k]
					acc2 := f.acc + in.Value[in.DrvTask[child]]
					acc2 -= in.DrvSuccCost[f.k]
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

// bestPathDP runs the per-driver longest-path DP over d's slots in topo
// order under the dead-task mask and optional Lagrangian adjustment,
// returning the best positive closing value and its end slot (-1 for
// the empty path).
func (sc *sparseScratch) bestPathDP(in *offline.Instance, d int, lambda []float64) (float64, int32) {
	lo, hi := in.DrvPtr[d], in.DrvPtr[d+1]
	topo := in.DrvTopo[lo:hi]
	ninf := math.Inf(-1)
	for _, si := range topo {
		if in.DrvSrcOK[si] && !sc.dead[in.DrvTask[si]] {
			sc.cur[si] = -in.DrvSrcCost[si]
		} else {
			sc.cur[si] = ninf
		}
		sc.prevS[si] = -1
	}
	best, bestEnd := 0.0, int32(-1)
	for _, si := range topo {
		mi := in.DrvTask[si]
		if sc.dead[mi] {
			continue
		}
		cv := sc.cur[si]
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
		for k := in.DrvSuccPtr[int(si)]; k < in.DrvSuccPtr[int(si)+1]; k++ {
			sj := in.DrvSucc[k]
			cand := v - in.DrvSuccCost[k]
			if cand > sc.cur[sj] {
				sc.cur[sj] = cand
				sc.prevS[sj] = si
			}
		}
	}
	return best, bestEnd
}

// reconstruct appends the prevS chain ending at end to dst in forward
// order and returns the extended slice.
func (sc *sparseScratch) reconstruct(end int32, dst []int32) []int32 {
	start := len(dst)
	for s := end; s >= 0; s = sc.prevS[s] {
		dst = append(dst, s)
	}
	// Reverse in place.
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// greedyComp builds the offline greedy incumbent: repeatedly commit the
// best remaining single-driver path (ties to the lower compact driver),
// invalidating cached paths lazily. Returns the left-associated value
// over the component's drivers ascending. Restores sc.dead to all
// false.
func (sc *sparseScratch) greedyComp(in *offline.Instance, cols, rows []int) float64 {
	nd := len(cols)
	sc.gOff = grow(sc.gOff, nd)
	sc.gLen = grow(sc.gLen, nd)
	sc.gVal = grow(sc.gVal, nd)
	sc.gDone = grow(sc.gDone, nd)
	sc.gSlots = sc.gSlots[:0]
	for i := 0; i < nd; i++ {
		sc.gDone[i] = false
		sc.gLen[i] = -1 // no cached path yet
	}
	for {
		bi := -1
		for i := 0; i < nd; i++ {
			if sc.gDone[i] {
				continue
			}
			stale := sc.gLen[i] < 0
			if !stale {
				for _, slot := range sc.gSlots[sc.gOff[i] : sc.gOff[i]+sc.gLen[i]] {
					if sc.dead[in.DrvTask[slot]] {
						stale = true
						break
					}
				}
			}
			if stale {
				v, end := sc.bestPathDP(in, cols[i], nil)
				sc.gOff[i] = int32(len(sc.gSlots))
				sc.gSlots = sc.reconstruct(end, sc.gSlots)
				sc.gLen[i] = int32(len(sc.gSlots)) - sc.gOff[i]
				sc.gVal[i] = v
			}
			if sc.gVal[i] > 0 && (bi < 0 || sc.gVal[i] > sc.gVal[bi]) {
				bi = i
			}
		}
		if bi < 0 {
			break
		}
		sc.gDone[bi] = true
		// Re-value the committed path canonically so incumbent values
		// are comparable with enumerated path values.
		slots := sc.gSlots[sc.gOff[bi] : sc.gOff[bi]+sc.gLen[bi]]
		if v, err := in.PathValue(cols[bi], slots); err == nil {
			sc.gVal[bi] = v
		}
		for _, slot := range slots {
			sc.dead[in.DrvTask[slot]] = true
		}
	}
	total := 0.0
	for i := 0; i < nd; i++ {
		if sc.gDone[i] {
			total += sc.gVal[i]
		} else {
			sc.gLen[i] = -1 // not part of the incumbent
		}
	}
	for _, m := range rows {
		sc.dead[m] = false
	}
	return total
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

// emitIncumbent copies the warm (incWarm) or greedy incumbent into the
// worker's chosen arena and returns its left-associated value.
func (sc *sparseScratch) emitIncumbent(in *offline.Instance, cols []int, incWarm bool, res *compResult) float64 {
	offs, lens, vals := sc.wOff, sc.wLen, sc.wVal
	arena := sc.wSlots
	if !incWarm {
		offs, lens, vals = sc.gOff, sc.gLen, sc.gVal
		arena = sc.gSlots
	}
	total := 0.0
	for i := range cols {
		if lens[i] < 0 || lens[i] == 0 {
			continue
		}
		off := int32(len(sc.chosenSlots))
		sc.chosenSlots = append(sc.chosenSlots, arena[offs[i]:offs[i]+lens[i]]...)
		sc.chosenRecs = append(sc.chosenRecs, chosenRec{
			driver: int32(cols[i]), off: off, n: lens[i], value: vals[i],
		})
		res.nRecs++
		total += vals[i]
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
	offs, lens := sc.wOff, sc.wLen
	arena := sc.wSlots
	if !incWarm {
		offs, lens = sc.gOff, sc.gLen
		arena = sc.gSlots
	}
	for i := 0; i < nd; i++ {
		if lens[i] <= 0 {
			continue
		}
		want := arena[offs[i] : offs[i]+lens[i]]
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
			v, end := sc.bestPathDP(in, d, sc.lambda)
			if v > 0 {
				L += v
				for s := end; s >= 0; s = sc.prevS[s] {
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
