package sim

import (
	"repro/internal/geo"
	"repro/internal/model"
)

// This file is the engine side of scoring under a model.DistanceBatcher
// (dispatch wires the road router in). Scoring a task against k drivers
// needs three distances per driver, and under a road metric each costs
// two nearest-node searches before any routing happens. Two facts
// remove nearly all of that work:
//
//   - Points stand still. An order's endpoints never move, a driver's
//     home never moves, and her location changes only when she is
//     assigned, revoked or restored. So the order is resolved once per
//     query (orderTerms) and each driver once per move (driverSnap):
//     the engine keeps the geo.Snap, not the point.
//   - Two of the three distances share a task endpoint across the whole
//     set: location→pickup (shared destination) and dropoff→home
//     (shared origin). Each is one batch call: on a graph of at most
//     1 024 nodes the router loops over table loads, and above that it
//     answers from a single shared half-search over the pairs its cache
//     lacks.
//
// The batcher contract demands bitwise-equal distances, and the stages
// below are the same pickupArrival/finishCandidate pair the per-pair
// path runs, so scoring with and without a batcher is value-identical
// (the roadnet differential tests replay full traces both ways to prove
// it). The bounded walks score their few survivors one at a time
// (candidate), through DistSnapped on the same snaps: the same values.

// driverSnap is the engine's memo of one driver: the distance from her
// current location to her home (the oldHome term of the margin, taken
// on first need) and, under the market's batcher, the two points
// resolved to graph nodes. It is derived state — never captured, never
// journaled — and validates itself: loc carries the point it was taken
// for (loc.P; a plain-Dist market fills in nothing else of it), so an
// entry is used only while that point is still the driver's, and no
// mutation of driver state has an invalidation to remember. It stands
// on Dist being a function of its two points, as replaying a journal
// already does. An entry is filled lazily, when the driver is first
// scored.
type driverSnap struct {
	homeKm    float64 // Dist(loc.P, home.P), valid when hasHomeKm
	hasHomeKm bool
	filled    bool     // loc and home have been snapped at least once
	loc, home geo.Snap // of states[i].Loc and Drivers[i].Dest
}

// resetMemo sizes an empty memo for the current fleet.
func (e *Engine) resetMemo() {
	e.memo = make([]driverSnap, len(e.Drivers))
}

// driverSnap returns driver i's memo, resolving whichever of her two
// points it does not currently describe.
func (e *Engine) driverSnap(b model.DistanceBatcher, i int) *driverSnap {
	m := &e.memo[i]
	loc, home := e.states[i].Loc, e.Drivers[i].Dest
	if !m.filled || m.home.P != home {
		m.home = b.Snap(home)
		m.hasHomeKm = false
	}
	if !m.filled || m.loc.P != loc {
		m.loc = b.Snap(loc)
		m.hasHomeKm = false
	}
	m.filled = true
	return m
}

// homeKm is the distance from driver i's current location to her own
// destination: what her plan already costs her before a new task is
// inserted ahead of it. It changes only when she moves, so every order
// scored against her in between reads the memo.
func (e *Engine) homeKm(i int) float64 {
	b := e.Market.Batch
	if b == nil {
		m := &e.memo[i]
		if loc := e.states[i].Loc; !m.hasHomeKm || m.loc.P != loc {
			m.loc.P = loc
			m.homeKm = e.Market.Dist(loc, e.Drivers[i].Dest)
			m.hasHomeKm = true
		}
		return m.homeKm
	}
	m := e.driverSnap(b, i)
	if !m.hasHomeKm {
		m.homeKm = b.DistSnapped(m.loc, m.home)
		m.hasHomeKm = true
	}
	return m.homeKm
}

// orderTerms are the parts of scoring that depend on the order alone,
// taken once per candidate query: its service time and cost — one
// source→destination distance, converted twice — and, under a batcher,
// its two endpoints resolved for the distance batches.
type orderTerms struct {
	service, serviceCost float64
	src, dst             geo.Snap // zero without a batcher
}

func (e *Engine) orderTerms(task model.Task) orderTerms {
	var q orderTerms
	var km float64
	if b := e.Market.Batch; b != nil {
		q.src, q.dst = b.Snap(task.Source), b.Snap(task.Dest)
		km = b.DistSnapped(q.src, q.dst)
	} else {
		km = e.Market.Dist(task.Source, task.Dest)
	}
	q.service = e.Market.TravelTimeKm(km, 0)
	q.serviceCost = e.Market.TravelCostKm(km)
	return q
}

// candidate is candidateFor over the market's batcher when it has one:
// the same two stages on driver i's memoised snaps and the order's,
// through DistSnapped — bitwise what scoreCandidates' batches compute
// for her, without two nearest-node searches per pair.
func (e *Engine) candidate(i int, task model.Task, now float64, q orderTerms) (Candidate, bool) {
	b := e.Market.Batch
	if b == nil {
		return e.candidateFor(i, task, now, q.service, q.serviceCost)
	}
	if !e.present[i] {
		return Candidate{}, false
	}
	m := e.driverSnap(b, i)
	pickupKm := b.DistSnapped(m.loc, q.src)
	arrival, ok := e.pickupArrival(i, task, now, pickupKm)
	if !ok {
		return Candidate{}, false
	}
	return e.finishCandidate(i, task, q.service, q.serviceCost, arrival, pickupKm, b.DistSnapped(q.dst, m.home))
}

// distBatch is one scoring pass's scratch. Each caller that may score
// concurrently owns one (the engine for the linear scan, each
// GridSource).
type distBatch struct {
	ids   []int      // surviving driver indices
	snaps []geo.Snap // batch endpoints (locations, then home dests)
	kms   []float64  // location→pickup distances
	arr   []float64  // pickup arrival times
	homes []float64  // dropoff→home distances
}

// scoreCandidates runs the exact feasibility checks of Algorithms 3–4
// over ids (which must be in ascending driver order), appending the
// feasible candidates to buf in that order. With a market batcher every
// distance comes from it, in shared-endpoint batches over memoised
// driver snaps, whatever the size of the set; without one this is
// exactly the candidateFor loop over Market.Dist.
func (e *Engine) scoreCandidates(db *distBatch, ids []int, task model.Task, now float64, q orderTerms, buf []Candidate) []Candidate {
	batcher := e.Market.Batch
	if batcher == nil {
		for _, i := range ids {
			if c, ok := e.candidateFor(i, task, now, q.service, q.serviceCost); ok {
				buf = append(buf, c)
			}
		}
		return buf
	}

	// Stage 1: location→pickup for every present driver, one
	// many-to-one batch (the pickup is the shared destination).
	db.ids = db.ids[:0]
	db.snaps = db.snaps[:0]
	for _, i := range ids {
		if !e.present[i] {
			continue
		}
		db.ids = append(db.ids, i)
		db.snaps = append(db.snaps, e.driverSnap(batcher, i).loc)
	}
	db.kms = growFloats(db.kms, len(db.ids))
	batcher.DistManyToSnappedInto(db.snaps, q.src, db.kms)

	// Stage 2: pickup- and dropoff-deadline clauses, which need no
	// further distances. Survivors compact in place, keeping order.
	db.arr = growFloats(db.arr, len(db.ids))
	keep := 0
	for k, i := range db.ids {
		arrival, ok := e.pickupArrival(i, task, now, db.kms[k])
		if !ok || arrival+q.service > task.EndBy {
			continue
		}
		db.ids[keep] = i
		db.kms[keep] = db.kms[k]
		db.arr[keep] = arrival
		db.snaps[keep] = e.memo[i].home
		keep++
	}
	if keep == 0 {
		return buf
	}

	// Stage 3: dropoff→home for the survivors, one one-to-many batch
	// (the dropoff is the shared origin), then the remaining clauses.
	db.homes = growFloats(db.homes, keep)
	batcher.DistManySnappedInto(q.dst, db.snaps[:keep], db.homes)
	for k := 0; k < keep; k++ {
		if c, ok := e.finishCandidate(db.ids[k], task, q.service, q.serviceCost, db.arr[k], db.kms[k], db.homes[k]); ok {
			buf = append(buf, c)
		}
	}
	return buf
}

// growFloats returns s resized to n elements, reallocating only when
// capacity is short (contents are overwritten by the caller).
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
