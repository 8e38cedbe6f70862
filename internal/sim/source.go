package sim

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/spatial"
)

// This file holds the two CandidateSource implementations. ScanSource is
// the reference: the exact per-driver feasibility loop of Algorithms 3–4,
// and the engine's default. GridSource — the one indexed source, which
// dispatch.New and `rideshare simulate` always bind — puts a
// spatial.Index between the task and that loop: only drivers inside the
// max-speed reachability radius of the pickup are checked exactly. The
// pre-filter is conservative — it never drops a driver the scan would
// accept — and every list leaves the source in ascending driver order,
// from the index's own sweep or sorted back into it, so the two sources
// yield bit-identical simulations (the differential tests assert exactly
// that).

// ScanSource enumerates candidates with an exact linear scan over all
// drivers — O(N) per task. The zero value is ready for Engine use.
type ScanSource struct {
	e *Engine
}

var _ CandidateSource = (*ScanSource)(nil)

// Name implements CandidateSource.
func (s *ScanSource) Name() string { return "scan" }

// Bind implements CandidateSource.
func (s *ScanSource) Bind(e *Engine) { s.e = e }

// Candidates implements CandidateSource.
func (s *ScanSource) Candidates(task model.Task, now float64, buf []Candidate) []Candidate {
	return s.e.candidates(task, now, buf)
}

// Moved implements CandidateSource.
func (s *ScanSource) Moved(int) {}

// Presence implements CandidateSource. The scan has no index to prune;
// the engine's exact feasibility check skips absent drivers.
func (s *ScanSource) Presence(int, bool) {}

// Added implements CandidateSource: the scan reads the engine's fleet.
func (s *ScanSource) Added(int) {}

// GridSource enumerates candidates through a bucketed spatial index over
// grid cells that tracks every driver's location and availability window
// as assignments mutate state. A task with pickup deadline t̄− dispatched
// at `now` can only go to a driver within maxSpeed·(t̄−−max(freeAt,now))
// of the pickup whose shift outlasts the task, so the source queries the
// index with exactly that reachability predicate and runs the exact
// feasibility checks only on the survivors. On city-scale markets where
// most of the fleet is off shift, locked, or out of range at any instant
// this turns the per-task cost from O(N) into O(drivers plausibly able
// to serve).
//
// The radius pre-filter is conservative as long as the market's distance
// function never undercuts spatial.Safety × the equirectangular distance
// (true for every metric in this repository; see the spatial package
// doc), so results are identical to ScanSource on the same engine.
type GridSource struct {
	// Grid is the cell decomposition to index drivers over. Leaving it
	// nil auto-sizes a grid over the fleet's bounding box at Bind time,
	// targeting a few drivers per cell.
	Grid *geo.Grid

	e        *Engine
	ix       *spatial.Index
	boxCos   float64 // the bound grid's minCos: what Added holds a newcomer to
	maxSpeed float64 // fastest driver in the fleet, km/h
	ids      []int   // query scratch
	db       distBatch
	stats    WalkStats
}

// WalkStats counts what the bounded paths — Contenders and crow-fly
// TopRow — have done since the source was made, and what its index has
// done for every query, those of the full list included, since it was
// last bound: plain counters, written by the one goroutine that runs the
// engine.
type WalkStats struct {
	CellsVisited   uint64 // non-empty cells a margin walk came to
	CellsSkipped   uint64 // of those, skipped whole on their bound
	EntriesScanned uint64 // index entries put through the predicate
	ExactScores    uint64 // candidateFor calls, on either rank
	spatial.Stats         // the index's transitions: Woken, Expired, Sorts, Shifted
}

// WalkStats returns the counters.
func (s *GridSource) WalkStats() WalkStats {
	w := s.stats
	if s.ix != nil {
		w.Stats = s.ix.Stats()
	}
	return w
}

var (
	_ CandidateSource = (*GridSource)(nil)
	_ boundedSource   = (*GridSource)(nil)
)

// NewGridSource returns an indexed source over the given grid; nil
// auto-sizes one from the fleet when the source is bound to an engine.
func NewGridSource(grid *geo.Grid) *GridSource {
	return &GridSource{Grid: grid}
}

// NewShardedSource returns NewGridSource(nil) whatever the count.
//
// Deprecated: the zone partition is gone and one index serves every
// fleet; only the frozen benchmark/ still calls this.
func NewShardedSource(int) *GridSource { return NewGridSource(nil) }

// Name implements CandidateSource.
func (s *GridSource) Name() string { return "indexed" }

// Bind implements CandidateSource. It panics if the configured grid's
// latitude band is so far from the fleet's that the index's conservative
// projection guarantee would no longer hold (see spatial.Safety) — a
// misconfigured static grid, in the same spirit as geo.NewGrid's own
// panics; results would otherwise silently diverge from ScanSource.
func (s *GridSource) Bind(e *Engine) {
	s.e = e
	grid := s.Grid
	if grid == nil {
		grid = autoGrid(e.Drivers)
	}
	checkGridCoversFleet(grid, e.Drivers)
	s.boxCos = minCos(grid)
	s.ix = spatial.NewSparseIndex(grid, len(e.Drivers))
	s.maxSpeed = e.Market.SpeedKmh
	for i := range e.Drivers {
		s.index(i)
	}
}

// index puts driver i, whom the index has an id for but does not hold,
// into it. The window goes in first, so she is placed once, in the
// state it gives her: freeAt starts at shift start (the engine resets
// states that way) and narrows as assignments lock her; a driver who
// has yet to join gets the empty span until Presence opens it.
func (s *GridSource) index(i int) {
	s.maxSpeed = max(s.maxSpeed, s.e.Drivers[i].SpeedKmh)
	s.Presence(i, s.e.present[i])
	s.ix.Add(i, s.e.states[i].loc)
	s.ix.SetHome(i, s.e.Drivers[i].Dest)
}

// Candidates implements CandidateSource.
func (s *GridSource) Candidates(task model.Task, now float64, buf []Candidate) []Candidate {
	e := s.e
	return e.scoreCandidates(&s.db, s.reachable(task, now), task, now, e.orderTerms(task), buf)
}

// reachable asks the index who could reach the pickup by its deadline:
// every driver departs at max(freeAt, now), so it prunes on both the
// travel-time budget and the availability window. It answers in the
// canonical ascending driver order the dispatchers' tie-breaking
// depends on. The result is the source's scratch, good until the next
// query.
func (s *GridSource) reachable(task model.Task, now float64) []int {
	minRetire := s.e.minRetire(task, now)
	if s.e.timeKeyed {
		s.ix.Expire(now)
	}
	s.ids = s.ix.AppendReachable(s.ids[:0], task.Source, s.maxSpeed, task.StartBy, now, minRetire)
	return s.ids
}

// Contenders is Candidates for a dispatcher that takes one extremum
// (see Ranked): it scores a driver exactly — candidateFor, two
// Market.Dist calls — only if an optimistic candidate built from lower
// bounds on her two distances could still equal or beat the best exact
// candidate so far. Everyone else is skipped for a few multiplications
// and a square root.
//
// The bounds are the pre-filter's own: Safety × the planar distance of
// two projected points never exceeds Market.Dist of them (see the type
// comment). The optimistic arrival and margin come out of the very
// functions the exact ones do, fed the smaller distances; every step of
// those is monotone under rounding, so the optimistic rank is at least
// the exact one as floats, and a skipped driver ranks strictly below the
// incumbent — she could neither win nor tie. Every skip test is false
// for a NaN, which therefore goes to exact scoring.
//
// The two ranks are walked differently, because their choosers promise
// different things (see Rank). RankMargin is order-free, so it takes the
// index's cursor (marginWalk) and sorts the few survivors back into
// driver order. RankArrival is prefix-only and keeps the ascending list:
// Nearest draws from the RNG when a candidate ties the *running* minimum,
// so skipping a driver against an incumbent met later in driver order —
// which any other order of walking does — removes draws (drivers 1 and 2
// tie at 13 500 s, driver 9 arrives at 11 520 s: one draw from the full
// list, none if 9 is met first; TestNearestDrawsOnRunningTies). On that
// walk an optimistic arrival past the pickup deadline means the exact
// one is too: infeasible, skipped whatever the rank.
//
// Under a road metric (Market.Batch) the full list stays: scoring it in
// two shared-endpoint batches is what that path is built around.
func (s *GridSource) Contenders(task model.Task, now float64, by Rank, buf []Candidate) []Candidate {
	e := s.e
	if e.Market.Batch != nil || by != RankMargin && by != RankArrival {
		return s.Candidates(task, now, buf)
	}
	q := e.orderTerms(task)
	if by == RankMargin {
		return s.bestMargins(task, now, q, buf)
	}
	sx, sy := s.ix.Project(task.Source)
	earliest := math.Inf(1)
	for _, i := range s.reachable(task, now) {
		lx, ly := s.ix.Project(e.states[i].loc)
		arrival, ok := e.pickupArrival(i, task, now, lowerKm(lx, ly, sx, sy))
		if !ok || arrival > earliest {
			continue
		}
		s.stats.ExactScores++
		c, ok := e.candidateFor(i, task, now, q.service, q.serviceCost)
		if !ok {
			continue
		}
		buf = append(buf, c)
		if c.Arrival < earliest {
			earliest = c.Arrival
		}
	}
	return buf
}

// marginWalk is one order's pass over the index for the two walks that
// rank by margin: the cursor over the drivers who could reach the pickup
// by its deadline, and what the optimistic margin of one of them needs
// of the order. The pickup-deadline clause is not bounded here a second
// time: the cursor's predicate applies it at the fleet's top speed and
// candidateFor applies it exactly, so on a fleet of mixed speeds a slow
// driver the predicate lets through is at worst scored and dropped.
type marginWalk struct {
	cur                spatial.Cursor
	e                  *Engine
	price, serviceCost float64
	dropX, dropY       float64 // the dropoff, projected
}

func (s *GridSource) marginWalk(task model.Task, now float64, q orderTerms) marginWalk {
	if s.e.timeKeyed {
		s.ix.Expire(now)
	}
	w := marginWalk{
		cur: s.ix.Reachable(task.Source, s.maxSpeed, task.StartBy, now, s.e.minRetire(task, now)),
		e:   s.e, price: task.Price, serviceCost: q.serviceCost,
	}
	w.dropX, w.dropY = s.ix.Project(task.Dest)
	return w
}

// optimistic is the margin bound of the driver behind en, who stands
// √distSq planar kilometres from the pickup: Engine.margin fed Safety ×
// the planar length of her two new legs. The way home she already has
// is exact, taken from the engine the first time a walk needs it after
// she moved and kept in her entry since — only ever for a driver the
// index predicate passed, so a rejected one costs no Market.Dist. Both
// walks call this one method, where each used to carry a copy of the
// per-driver prelude to spare a call per reachable driver: the call now
// comes after the inlined predicate, for half as many, and written out
// in the loop it measured inside the noise.
func (w *marginWalk) optimistic(en *spatial.Entry, distSq float64) float64 {
	if en.HomeKm != en.HomeKm {
		en.HomeKm = w.e.homeKm(int(en.ID))
	}
	return w.e.margin(w.price, w.serviceCost, spatial.Safety*math.Sqrt(distSq),
		lowerKm(w.dropX, w.dropY, en.HomeX, en.HomeY), en.HomeKm)
}

// cellBound is optimistic for the current cell as a whole: no driver in
// it is nearer the pickup than the cell, ends nearer her home than at
// it, or has further to go home now than the one of them who has
// furthest.
func (w *marginWalk) cellBound() float64 {
	return w.e.margin(w.price, w.serviceCost, w.cur.RingKm(), 0, w.cur.MaxHomeKm())
}

// bestMargins is Contenders for RankMargin: every feasible driver whose
// optimistic margin reaches the best exact one met before her on the
// walk. Whoever holds the final best margin, or ties it, is among them
// whatever the order of the walk — her optimistic margin is at least
// her exact one, which no incumbent exceeds — and sorted back into
// driver order the list is one MaxMargin cannot tell from the full one.
func (s *GridSource) bestMargins(task model.Task, now float64, q orderTerms, buf []Candidate) []Candidate {
	start := len(buf)
	best := math.Inf(-1)
	n := s.stats // counted in a local: a store to s would make the loop reload all it reads
	for w := s.marginWalk(task, now, q); w.cur.Next(); {
		n.CellsVisited++
		if w.cellBound() < best {
			n.CellsSkipped++
			continue
		}
		ents := w.cur.Entries()
		n.EntriesScanned += uint64(len(ents))
		maxHome := math.Inf(-1)
		for k := range ents {
			en := &ents[k]
			if distSq, ok := w.cur.Reach(en); ok && !(w.optimistic(en, distSq) < best) {
				n.ExactScores++
				if c, ok := s.e.candidateFor(int(en.ID), task, now, q.service, q.serviceCost); ok {
					buf = append(buf, c)
					if c.Margin > best {
						best = c.Margin
					}
				}
			}
			maxHome = max(maxHome, en.HomeKm)
		}
		w.cur.Tighten(maxHome)
	}
	s.stats = n
	sortByDriver(buf[start:])
	return buf
}

// TopRow is topRow for a batched window (closeBatchSparse): the same
// walk as bestMargins, keeping the exact candidates of the row so far —
// at most k, all of positive margin — as a heap on the tail of arena
// whose root is the one that ranks last under ranksBefore, and scoring a
// driver exactly only if her optimistic margin could still put her in
// the row. What survives is sorted back into driver order, so the row is
// topRow's element for element.
//
// A driver is skipped when her optimistic margin is strictly below the
// full heap's root: she ranks after everyone in it. One that could at
// best equal the root is scored, and ranksBefore — margin, then lower
// driver id — decides; the walk is not in driver order, so the tie-break
// cannot be settled without her id. The floor is closed: topRow keeps
// Margin > 0, so an optimistic margin of 0 is skipped. Both tests are
// false for a NaN, which goes to exact scoring, where !(Margin > 0)
// drops it as topRow's filter does. A row with fewer than k positive
// margins never fills the heap and is pruned by the floor alone.
//
// The dropoff-deadline and return-home clauses could be bounded the same
// way and are not: on a 10k-driver day they would spare 0.7 % of the
// exact scores (1.8 % in real-time mode).
//
// Under a road metric (Market.Batch) the full list stays, as in
// Contenders — and measured, not assumed: a road distance exceeds the
// planar bound by circuity and two access legs, half the rows of such a
// day never fill, and 55 % of the drivers survived the bound.
func (s *GridSource) TopRow(task model.Task, now float64, k int, arena []Candidate) []Candidate {
	e := s.e
	if e.Market.Batch != nil {
		return topRow(s, task, now, k, arena)
	}
	q := e.orderTerms(task)
	start := len(arena)
	root := math.Inf(-1) // the margin to reach: a full heap's root, none until it fills
	n := s.stats         // counted in a local, as in bestMargins
	for w := s.marginWalk(task, now, q); w.cur.Next(); {
		n.CellsVisited++
		if opt := w.cellBound(); opt <= 0 || opt < root {
			n.CellsSkipped++
			continue
		}
		ents := w.cur.Entries()
		n.EntriesScanned += uint64(len(ents))
		maxHome := math.Inf(-1)
		for i := range ents {
			en := &ents[i]
			if distSq, ok := w.cur.Reach(en); ok {
				if opt := w.optimistic(en, distSq); !(opt <= 0 || opt < root) {
					n.ExactScores++
					if c, ok := e.candidateFor(int(en.ID), task, now, q.service, q.serviceCost); ok && c.Margin > 0 {
						arena = admit(arena, start, k, c)
						if row := arena[start:]; len(row) == k {
							root = row[0].Margin
						}
					}
				}
			}
			maxHome = max(maxHome, en.HomeKm)
		}
		w.cur.Tighten(maxHome)
	}
	s.stats = n
	sortByDriver(arena[start:])
	return arena
}

// admit puts c into TopRow's heap, arena[start:], while that has fewer
// than k elements, and after that in place of its root if c ranks before
// it.
func admit(arena []Candidate, start, k int, c Candidate) []Candidate {
	if row := arena[start:]; len(row) < k {
		arena = append(arena, c)
		siftUp(arena[start:])
	} else if ranksBefore(c, row[0]) {
		row[0] = c
		siftDown(row)
	}
	return arena
}

// siftUp and siftDown maintain TopRow's heap: no element ranks before
// its parent, so row[0] ranks last. siftUp places a just-appended last
// element, siftDown a just-replaced root.
func siftUp(row []Candidate) {
	for i := len(row) - 1; i > 0; {
		p := (i - 1) / 2
		if !ranksBefore(row[p], row[i]) {
			return
		}
		row[p], row[i] = row[i], row[p]
		i = p
	}
}

func siftDown(row []Candidate) {
	for i := 0; ; {
		last := i // the one of i and its children that ranks last
		for c := 2*i + 1; c <= 2*i+2 && c < len(row); c++ {
			if ranksBefore(row[last], row[c]) {
				last = c
			}
		}
		if last == i {
			return
		}
		row[i], row[last] = row[last], row[i]
		i = last
	}
}

// lowerKm is the pre-filter's lower bound on the travel distance between
// two points given by their spatial.Index.Project coordinates.
func lowerKm(ax, ay, bx, by float64) float64 {
	return spatial.Safety * math.Sqrt((ax-bx)*(ax-bx)+(ay-by)*(ay-by))
}

// Moved implements CandidateSource.
func (s *GridSource) Moved(i int) {
	s.ix.Move(i, s.e.states[i].loc)
	s.ix.SetSpan(i, s.e.states[i].freeAt, s.e.Drivers[i].End)
}

// Presence implements CandidateSource. The dense index keeps every
// driver bucketed; absent drivers are pruned by collapsing their
// availability window to the empty span (and restored from engine
// state on a join). Correctness never depends on this — the engine's
// exact check is the arbiter — it only keeps retired fleets cheap.
func (s *GridSource) Presence(i int, present bool) {
	if present {
		s.ix.SetSpan(i, s.e.states[i].freeAt, s.e.Drivers[i].End)
	} else {
		s.ix.SetSpan(i, math.Inf(1), math.Inf(-1))
	}
}

// Added implements CandidateSource. The grid stays the one Bind laid
// out — a newcomer outside it is clamped into a border cell, as a
// pickup is — unless she stands so far poleward of it that its
// longitude scale would overstate her distances (polewardOf): then the
// source binds again over the grown fleet, which auto-sizes a grid that
// covers her, or panics as Bind does on a configured one.
func (s *GridSource) Added(i int) {
	d := &s.e.Drivers[i]
	if polewardOf(s.boxCos, d.Source) || polewardOf(s.boxCos, d.Dest) {
		s.Bind(s.e)
		return
	}
	s.ix.Grow()
	s.index(i)
}

// minCos is the smallest cosine over the grid box's latitudes: the
// longitude scale of the index's planar pre-filter.
func minCos(grid *geo.Grid) float64 {
	return math.Min(
		math.Abs(math.Cos(grid.Box.MinLat*math.Pi/180)),
		math.Abs(math.Cos(grid.Box.MaxLat*math.Pi/180)))
}

// polewardOf reports whether p breaks the precondition of the index's
// planar pre-filter over a grid whose minCos is boxCos: that scale
// lower-bounds true east-west distances only for points at latitudes
// with comparable cosines. A point far poleward of the box would have
// its distances overstated beyond what the Safety slack absorbs,
// silently voiding the scan/grid equivalence. The 1.05 ceiling leaves
// most of the 1/spatial.Safety ≈ 1.11 slack for metric disagreement
// (haversine, road networks) and for drivers drifting to dropoffs near,
// but outside, the box during simulation.
func polewardOf(boxCos float64, p geo.Point) bool {
	return boxCos > math.Abs(math.Cos(p.Lat*math.Pi/180))*1.05
}

// checkGridCoversFleet rejects, loudly, a grid that some driver's start
// or end stands polewardOf.
func checkGridCoversFleet(grid *geo.Grid, drivers []model.Driver) {
	boxCos := minCos(grid)
	for _, d := range drivers {
		for _, p := range []geo.Point{d.Source, d.Dest} {
			if polewardOf(boxCos, p) {
				panic(fmt.Sprintf(
					"sim: grid box latitudes [%g, %g] too far from driver %d at latitude %g for conservative pre-filtering; use a grid covering the fleet (or a nil Grid to auto-size one)",
					grid.Box.MinLat, grid.Box.MaxLat, d.ID, p.Lat))
			}
		}
	}
}

// fleetBox bounds the fleet's start/end positions, padded so boundary
// drivers do not all clamp into edge cells; points outside it (e.g.
// pickups of far-out tasks) stay correct via clamping, merely a little
// slower. An empty fleet gets the Porto box.
func fleetBox(drivers []model.Driver) geo.BoundingBox {
	if len(drivers) == 0 {
		return geo.PortoBox
	}
	box := geo.BoundingBox{
		MinLat: math.Inf(1), MinLon: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLon: math.Inf(-1),
	}
	grow := func(p geo.Point) {
		box.MinLat = math.Min(box.MinLat, p.Lat)
		box.MaxLat = math.Max(box.MaxLat, p.Lat)
		box.MinLon = math.Min(box.MinLon, p.Lon)
		box.MaxLon = math.Max(box.MaxLon, p.Lon)
	}
	for _, d := range drivers {
		grow(d.Source)
		grow(d.Dest)
	}
	const padDeg = 0.005 // ~0.5 km; also un-degenerates single-point fleets
	box.MinLat = math.Max(box.MinLat-padDeg, -90)
	box.MinLon = math.Max(box.MinLon-padDeg, -180)
	box.MaxLat = math.Min(box.MaxLat+padDeg, 90)
	box.MaxLon = math.Min(box.MaxLon+padDeg, 180)
	return box
}

// autoGrid sizes a grid over the fleet's bounding box, targeting
// roughly two drivers per cell so ring queries touch small buckets.
func autoGrid(drivers []model.Driver) *geo.Grid {
	dim := int(math.Ceil(math.Sqrt(float64(len(drivers)) / 2)))
	if dim < 1 {
		dim = 1
	}
	if dim > 512 {
		dim = 512
	}
	return geo.NewGrid(fleetBox(drivers), dim, dim)
}
