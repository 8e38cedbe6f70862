package sim

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/spatial"
)

// This file holds the two CandidateSource implementations. ScanSource is
// the reference: the exact per-driver feasibility loop of Algorithms 3–4.
// GridSource — the one indexed source, and the one sim.New binds — puts
// a spatial.Index between the task and that loop: only drivers inside the
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

// Contenders implements CandidateSource: the reference spares no one and
// answers every rank with the full list.
func (s *ScanSource) Contenders(task model.Task, now float64, _ Rank, buf []Candidate) []Candidate {
	return s.Candidates(task, now, buf)
}

// TopRow implements CandidateSource with the reference construction.
func (s *ScanSource) TopRow(task model.Task, now float64, k int, arena []Candidate) []Candidate {
	return topRow(s, task, now, k, arena)
}

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
	cover    coverage // the bound grid's: what Added holds a newcomer to
	maxSpeed float64  // fastest driver in the fleet, km/h
	ids      []int    // query scratch
	db       distBatch
	road     roadLeg // the margin walks' road terms, on a market with a node table
	stats    WalkStats
}

// WalkStats counts what the bounded paths — Contenders and TopRow — have
// done since the source was made, and what its index has done for every
// query, those of the full list included, since it was last bound: plain
// counters, written by the one goroutine that runs the engine.
type WalkStats struct {
	CellsStepped   uint64 // cells a margin walk came to, empty ones included
	CellsVisited   uint64 // of those, the non-empty ones
	CellsSkipped   uint64 // of those, skipped whole on their bound
	EntriesScanned uint64 // index entries a margin walk put through the predicate
	Reached        uint64 // of those, entries the predicate passed
	DeadlineSkips  uint64 // of those, drivers a road walk skipped on her arrival bound
	ExactScores    uint64 // drivers scored exactly, on either rank
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

var _ CandidateSource = (*GridSource)(nil)

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
	s.cover = checkGridCoversFleet(grid, e.Drivers)
	s.ix = spatial.NewSparseIndex(grid, len(e.Drivers))
	s.maxSpeed = e.Market.SpeedKmh
	s.road = roadLeg{}
	if e.Market.Batch != nil {
		s.road.table, s.road.nodes = e.Market.Batch.Table()
	}
	for i := range e.Drivers {
		s.span(i)
	}
	// One layer on a road market: see DESIGN.md, "Why not on a road market".
	s.ix.Load(func(i int) (geo.Point, geo.Point, float64, int32) {
		km, node := s.place(i)
		return e.states[i].Loc, e.Drivers[i].Dest, km, node
	}, e.Market.Batch == nil)
}

// walks reports whether the margin walks can bound the market's metric:
// crow-fly, or a road metric with a node table. Any other Batch market —
// a graph routed by a kernel — keeps the full list, scored in two
// shared-endpoint batches.
func (s *GridSource) walks() bool {
	return s.e.Market.Batch == nil || s.road.table != nil
}

// span takes driver i, whom the index has an id for but does not hold,
// into the fleet's top speed and gives the index her window, before she
// is placed — with the whole fleet by Bind's Load, or alone by index —
// so that she is placed once, in the region the window puts her in.
// freeAt starts at shift start (the engine resets states that way) and
// narrows as assignments lock her; a driver who has yet to join gets the
// empty span until Presence opens it.
func (s *GridSource) span(i int) {
	s.maxSpeed = max(s.maxSpeed, s.e.Drivers[i].SpeedKmh)
	s.Presence(i, s.e.present[i])
}

// index places driver i, who joined the fleet after Bind, on her own.
func (s *GridSource) index(i int) {
	s.span(i)
	km, node := s.place(i)
	s.ix.Add(i, s.e.states[i].Loc, km, node)
	s.ix.SetHome(i, s.e.Drivers[i].Dest)
}

// place is what driver i's entry is given with her location, by Bind's
// pass over the fleet, a join and every Moved: on a market the walks
// bound, her way home, the engine's — so that no walk has one to look up
// and every cell's bound is finite from the first query — and on one with
// a node table the node she stands nearest, from the engine's snap memo,
// which the way home has just filled. The walks reach nearly every
// driver of a road day — on batched_network's, when they looked these up
// themselves, 10 372 nodes and 9 495 ways home for 10 000 drivers — so
// the two snaps this costs a placement are paid either way, here in
// order rather than at random in the middle of a row. A kernel-routed
// market does not walk, and its entries carry neither.
func (s *GridSource) place(i int) (homeKm float64, node int32) {
	if !s.walks() {
		return math.NaN(), -1
	}
	homeKm, node = s.e.homeKm(i), -1
	if s.road.table != nil {
		node = s.e.memo[i].loc.Node
	}
	return homeKm, node
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

// Contenders implements CandidateSource: Candidates for a dispatcher that
// takes one extremum (Dispatcher.RankedBy), cut by the rule of its rank
// (see Rank).
//
// RankMargin is the order's row of a window of one, TopRow with k = 1:
// the one walk that ranks by margin, nearest cell first, which answers
// with the first candidate of greatest positive margin or with none.
//
// RankArrival keeps the ascending list and scores a driver exactly —
// Engine.candidate, two distances — only if an optimistic arrival,
// built from a lower bound on her pickup leg, could still equal or beat
// the earliest exact arrival so far; everyone else is skipped for a few
// multiplications and a square root. The bound is the pre-filter's own:
// Safety × the planar distance of two projected points never exceeds
// Market.Dist of them (see the type comment). The optimistic arrival
// comes out of the very function the exact one does, fed the smaller
// distance; every step of it is monotone under rounding, so a skipped
// driver arrives strictly after the incumbent — she could neither win
// nor tie — and one whose optimistic arrival is past the pickup
// deadline is infeasible. Both tests are false for a NaN, which goes to
// exact scoring. The walk is in driver order because the rule asks for
// it: Nearest draws from the RNG when a candidate ties the *running*
// minimum, so skipping a driver against an incumbent met later in
// driver order — which any other order of walking does — removes draws
// (drivers 1 and 2 tie at 13 500 s, driver 9 arrives at 11 520 s: one
// draw from the full list, none if 9 is met first;
// TestNearestDrawsOnRunningTies). Under a road metric (Market.Batch),
// where a walk in id order could only bound on the planar leg, the
// arrival rank keeps the full list, scored in two shared-endpoint
// batches; so does any other rank.
func (s *GridSource) Contenders(task model.Task, now float64, by Rank, buf []Candidate) []Candidate {
	e := s.e
	switch {
	case by == RankMargin:
		return s.TopRow(task, now, 1, buf)
	case by != RankArrival || e.Market.Batch != nil:
		return s.Candidates(task, now, buf)
	}
	q := e.orderTerms(task)
	sx, sy := s.ix.Project(task.Source)
	earliest := math.Inf(1)
	for _, i := range s.reachable(task, now) {
		lx, ly := s.ix.Project(e.states[i].Loc)
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

// marginWalk is one order's pass over the index for the walk that ranks
// by margin (TopRow): the cursor over the drivers who could reach the
// pickup by its deadline, and what the optimistic margin of one of them
// needs of the order — with, on a market with a node table, the road
// terms (road). On crow-fly the pickup-deadline clause is not bounded
// here a second time: the cursor's predicate applies it at the fleet's
// top speed and the exact score applies it exactly, so on a fleet of
// mixed speeds a slow driver the predicate lets through is at worst
// scored and dropped.
//
// A walk is one variable of its caller's, declared before the loop that
// steps it: declared in the loop's init clause, its address taken by
// every method call would make it a per-iteration variable, copied whole
// at every cell (go build -gcflags=-d=loopvar=2 names any such loop).
type marginWalk struct {
	cur                spatial.Cursor
	e                  *Engine
	road               *roadLeg // nil on crow-fly
	price, serviceCost float64
	dropX, dropY       float64 // the dropoff, projected
}

func (s *GridSource) marginWalk(task model.Task, now float64, q orderTerms) marginWalk {
	e := s.e
	if e.timeKeyed {
		s.ix.Expire(now)
	}
	w := marginWalk{
		cur: s.ix.Reachable(task.Source, s.maxSpeed, task.StartBy, now, e.minRetire(task, now)),
		e:   e, price: task.Price, serviceCost: q.serviceCost,
	}
	w.dropX, w.dropY = s.ix.Project(task.Dest)
	if r := &s.road; r.table != nil {
		r.pickup, r.now, r.speed = q.src, now, s.maxSpeed
		r.startBy, r.endBy, r.service = task.StartBy, task.EndBy, q.service
		w.road = r
	}
	return w
}

// roadLeg is what a walk on a market with a node table needs to bound a
// driver's road pickup leg and her arrival at the pickup. On such a
// market DistSnapped(loc, pickup) is at least pickup.AccessKm +
// table[loc.Node][pickup.Node] (roadnet.Router.Table): her own access
// leg, the only term dropped, is non-negative, and float addition is
// monotone, so fl(fl(accL+accP)+T) >= fl(accP+T); T[n][n] = 0 covers the
// two standing at one node. That is off by one access leg where the
// planar bound is off by circuity and two, and it costs one load.
type roadLeg struct {
	table []float64 // table[u*nodes+v]: the distance u→v
	nodes int
	// Of the order being walked: its snapped pickup, the decision time,
	// the fleet's top speed, the two deadlines and the service time.
	pickup                  geo.Snap
	now, speed              float64
	startBy, endBy, service float64
}

// leg is the pickup leg bound of the driver behind en, given the planar
// one: the larger of that and the table bound, from the node her entry
// was given with her location (GridSource.place).
func (r *roadLeg) leg(en *spatial.Entry, planarKm float64) float64 {
	return max(planarKm, r.pickup.AccessKm+r.table[int(en.Node)*r.nodes+int(r.pickup.Node)])
}

// late reports whether a driver free at freeAt, whose pickup leg is at
// least pickupKm, already misses the pickup deadline on her earliest
// arrival, or leaves the ride no time to end by the dropoff deadline.
// The arrival bound is pickupArrival's expression, each input at most
// the exact one's: she departs no earlier than max(freeAt, now) — her
// entry's FreeAt is the engine's — no driver is faster than the fleet,
// and the leg is a lower bound, so a driver it rules out fails the exact
// clause too. Both tests are false for a NaN, which goes on to the
// margin bound and, from there, to exact scoring.
func (r *roadLeg) late(freeAt, pickupKm float64) bool {
	arrival := max(freeAt, r.now) + pickupKm/r.speed*3600
	return arrival > r.startBy || arrival+r.service > r.endBy
}

// optimistic is the margin bound of the driver behind en, who stands
// √distSq planar kilometres from the pickup: Engine.margin fed lower
// bounds on her two new legs — Safety × their planar lengths, the pickup
// leg raised to the table bound on a road market (roadLeg). The way home
// she already has is exact and kept in her entry: the source hands it to
// the index with every placement (GridSource.place). The second result
// is false for a driver the arrival bound rules out: she is infeasible,
// whatever her margin.
func (w *marginWalk) optimistic(en *spatial.Entry, distSq float64) (float64, bool) {
	pickupKm := spatial.Safety * math.Sqrt(distSq)
	if r := w.road; r != nil {
		if pickupKm = r.leg(en, pickupKm); r.late(en.FreeAt, pickupKm) {
			return 0, false
		}
	}
	return w.e.margin(w.price, w.serviceCost, pickupKm,
		lowerKm(w.dropX, w.dropY, en.HomeX, en.HomeY), en.HomeKm), true
}

// cellBound is optimistic for the current cell as a whole: no driver in
// it is nearer the pickup than the cell, ends nearer her home than at
// it, or has further to go home now than the one of them who has
// furthest.
func (w *marginWalk) cellBound() float64 {
	return w.e.margin(w.price, w.serviceCost, w.cur.RingKm(), 0, w.cur.MaxHomeKm())
}

// layerBound is cellBound for every cell of the current cell's layer
// from here on: RingKm never falls along a layer, and no driver of it has
// further to go home than its ceiling (spatial.Cursor.LayerHomeKm). It is
// at least cellBound, margin being monotone, so it stops only a skipped cell.
func (w *marginWalk) layerBound() float64 {
	return w.e.margin(w.price, w.serviceCost, w.cur.RingKm(), 0, w.cur.LayerHomeKm())
}

// past reports, on a road market, that the walk can stop: no driver in
// the current cell, nor in any cell after it, can make the order's
// deadlines. RingKm is a lower bound on the pickup leg of everyone in the
// cell, the cursor hands out cells ring by ring so it never falls, and
// everyone departs no earlier than now — so roadLeg.late's arrival bound
// at RingKm from now holds for all of them at once. It is the dropoff
// clause that makes this pay: orders priced and timed for crow-fly leave
// a road ride less time to reach the pickup than the pickup deadline
// does, and the cursor's square is sized by the pickup deadline alone.
func (w *marginWalk) past() bool {
	return w.road != nil && w.road.late(math.Inf(-1), w.cur.RingKm())
}

// TopRow is topRow for a batched window (closeBatchSparse), and for an
// instant decision by margin a window of one (Contenders): the margin
// walk, keeping the exact candidates of the row so far — at most k, all
// of positive margin — as a heap on the tail of arena whose root is the
// one that ranks last under ranksBefore, and scoring a driver exactly
// only if her optimistic margin could still put her in the row. What
// survives is sorted back into driver order, so the row is topRow's
// element for element.
//
// A cell whose bound is below the root is skipped whole, and so is the
// rest of its layer of the index when the layer's bound is (layerBound).
// A driver is skipped when her optimistic margin is strictly below the
// full heap's root: she ranks after everyone in it. One that could at
// best equal the root is scored, and ranksBefore — margin, then lower
// driver id — decides; the walk is not in driver order, so the tie-break
// cannot be settled without her id. The floor is closed: topRow keeps
// Margin > 0, so an optimistic margin of 0 is skipped. Both are one
// test, opt < root: until the heap fills, root is the least positive
// float, below which lies exactly what is not positive, and the full
// heap's root is a positive margin. The test is false for a NaN, which
// goes to exact scoring, where !(Margin > 0) drops it as topRow's filter
// does. A row with fewer than k positive margins never fills the heap
// and is pruned by the floor alone.
//
// On a road market with a node table the walk also skips a driver whose
// arrival bound misses either deadline (roadLeg.late), and stops at the
// first ring no driver can make the deadlines from (marginWalk.past). There the deadlines are what prune:
// half the rows of batched_network never fill, so the margin meets only
// the floor, and of the drivers a bound on the pickup deadline alone
// lets through, 48 % fail the dropoff deadline. On crow-fly the deadline
// clauses are not bounded: they would spare 0.7 % of the exact scores
// (1.8 % in real-time mode). A Batch market without a table keeps
// topRow's full list.
func (s *GridSource) TopRow(task model.Task, now float64, k int, arena []Candidate) []Candidate {
	e := s.e
	if !s.walks() {
		return topRow(s, task, now, k, arena)
	}
	q := e.orderTerms(task)
	start := len(arena)
	// The margin to reach: the floor, then a full heap's root.
	root := math.SmallestNonzeroFloat64
	n := s.stats // counted in a local: a store to s would make the loop reload all it reads
	w := s.marginWalk(task, now, q)
	for w.cur.Next() && !w.past() {
		n.CellsVisited++
		if w.cellBound() < root {
			n.CellsSkipped++
			if w.layerBound() < root {
				w.cur.Stop()
			}
			continue
		}
		ents := w.cur.Entries()
		n.EntriesScanned += uint64(len(ents))
		maxHome := math.Inf(-1)
		for i := range ents {
			en := &ents[i]
			if distSq, ok := w.cur.Reach(en); ok {
				n.Reached++
				if opt, ok := w.optimistic(en, distSq); !ok {
					n.DeadlineSkips++
				} else if !(opt < root) {
					n.ExactScores++
					if c, ok := e.candidate(int(en.ID), task, now, q); ok && c.Margin > 0 {
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
	n.CellsStepped += w.cur.Stepped()
	s.stats = n
	sortByDriver(arena[start:])
	return arena
}

// admit puts c into TopRow's heap, arena[start:], while that has fewer
// than k elements, and after that in place of its root if c ranks before
// it. The heap's root ranks last under ranksBefore. The heap is the tail
// of arena, so c is appended to arena, not to the tail.
func admit(arena []Candidate, start, k int, c Candidate) []Candidate {
	if row := arena[start:]; len(row) < k {
		arena = append(arena, c)
		heap.Fix(arena[start:], len(row), ranksAfter)
	} else if ranksBefore(c, row[0]) {
		row[0] = c
		heap.Fix(row, 0, ranksAfter)
	}
	return arena
}

func ranksAfter(a, b Candidate) bool { return ranksBefore(b, a) }

// lowerKm is the pre-filter's lower bound on the travel distance between
// two points given by their spatial.Index.Project coordinates.
func lowerKm(ax, ay, bx, by float64) float64 {
	return spatial.Safety * math.Sqrt((ax-bx)*(ax-bx)+(ay-by)*(ay-by))
}

// Moved implements CandidateSource.
func (s *GridSource) Moved(i int) {
	km, node := s.place(i)
	s.ix.Move(i, s.e.states[i].Loc, km, node)
	s.ix.SetSpan(i, s.e.states[i].FreeAt, s.e.Drivers[i].End)
}

// Presence implements CandidateSource. The dense index keeps every
// driver bucketed; absent drivers are pruned by collapsing their
// availability window to the empty span (and restored from engine
// state on a join). Correctness never depends on this — the engine's
// exact check is the arbiter — it only keeps retired fleets cheap.
func (s *GridSource) Presence(i int, present bool) {
	if present {
		s.ix.SetSpan(i, s.e.states[i].FreeAt, s.e.Drivers[i].End)
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
	if s.cover.poleward(d.Source) || s.cover.poleward(d.Dest) {
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

// coverage is polewardOf over one grid, without trigonometry for a point
// inside the grid's latitude band: |cos| is unimodal on [-90°, 90°], so
// over the band it is least at an end, and a point of the band has a
// cosine no smaller than minCos but for rounding — ulps against the 1.05
// slack. Only a point outside the band takes the cosine. A box reaching
// past a pole (which geo.NewGrid refuses) gets an empty band.
type coverage struct {
	latLo, latHi float64 // the band; empty (lo > hi) when it has no shortcut
	boxCos       float64 // the grid's minCos
}

func coverageOf(grid *geo.Grid) coverage {
	c := coverage{latLo: grid.Box.MinLat, latHi: grid.Box.MaxLat, boxCos: minCos(grid)}
	if c.latLo < -90 || c.latHi > 90 {
		c.latLo, c.latHi = 1, -1
	}
	return c
}

// poleward is polewardOf(boxCos, p), to the bit.
func (c coverage) poleward(p geo.Point) bool {
	if p.Lat >= c.latLo && p.Lat <= c.latHi {
		return false
	}
	return polewardOf(c.boxCos, p)
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
// or end stands polewardOf, and returns the grid's coverage.
func checkGridCoversFleet(grid *geo.Grid, drivers []model.Driver) coverage {
	c := coverageOf(grid)
	for i := range drivers {
		d := &drivers[i]
		for _, p := range [2]geo.Point{d.Source, d.Dest} {
			if c.poleward(p) {
				panic(fmt.Sprintf(
					"sim: grid box latitudes [%g, %g] too far from driver %d at latitude %g for conservative pre-filtering; use a grid covering the fleet (or a nil Grid to auto-size one)",
					grid.Box.MinLat, grid.Box.MaxLat, d.ID, p.Lat))
			}
		}
	}
	return c
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
