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
// accept — and the index hands the survivors over in ascending driver
// order, so the two sources yield bit-identical simulations (the
// differential tests assert exactly that).

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
// (see Ranked): it walks the same reachable drivers in the same order,
// but scores one exactly — candidateFor, two Market.Dist calls — only
// if an optimistic candidate built from lower bounds on her two
// distances could still equal or beat the best exact candidate so far.
// Everyone else is skipped for a few multiplications and a square root.
//
// The bounds are the pre-filter's own: Safety × the planar distance of
// two projected points never exceeds Market.Dist of them (see the type
// comment). The optimistic arrival and margin come out of the very
// functions the exact ones do, fed the smaller distances; every step of
// those is monotone under rounding, so the optimistic rank is at least
// the exact one as floats, and a skipped driver ranks strictly below the
// incumbent — she could neither win nor tie. An optimistic arrival past
// the pickup deadline means the exact one is too: infeasible, skipped
// whatever the rank. Both skip tests are false for a NaN, which
// therefore goes to exact scoring.
//
// Under a road metric (Market.Batch) the full list stays: scoring it in
// two shared-endpoint batches is what that path is built around.
func (s *GridSource) Contenders(task model.Task, now float64, by Rank, buf []Candidate) []Candidate {
	e := s.e
	if e.Market.Batch != nil || by != RankMargin && by != RankArrival {
		return s.Candidates(task, now, buf)
	}
	q := e.orderTerms(task)
	sx, sy := s.ix.Project(task.Source)
	dx, dy := s.ix.Project(task.Dest)
	best, found := 0.0, false
	for _, i := range s.reachable(task, now) {
		lx, ly := s.ix.Project(e.states[i].loc)
		pickupKm := lowerKm(lx, ly, sx, sy)
		arrival, ok := e.pickupArrival(i, task, now, pickupKm)
		if !ok {
			continue
		}
		if found {
			opt := Candidate{Arrival: arrival}
			if by == RankMargin {
				hx, hy := s.ix.Project(e.Drivers[i].Dest)
				opt.Margin = e.margin(task.Price, q.serviceCost, pickupKm, lowerKm(dx, dy, hx, hy), e.homeKm(i))
			}
			if by.of(opt) < best {
				continue
			}
		}
		c, ok := e.candidateFor(i, task, now, q.service, q.serviceCost)
		if !ok {
			continue
		}
		buf = append(buf, c)
		if r := by.of(c); !found || r > best {
			best, found = r, true
		}
	}
	return buf
}

// TopRow is topRow for a batched window (closeBatchSparse): it walks the
// same reachable drivers in the same order, keeping the exact candidates
// of the row so far — at most k, all of positive margin — as a heap on
// the tail of arena whose root is the one that ranks last under
// ranksBefore, and scores a driver exactly only if her optimistic margin
// (Contenders' bound: the exact functions fed lower bounds on her two
// distances, so never below her exact margin, as floats) could still put
// her in the row. What survives is sorted back into driver order, so the
// row is topRow's element for element.
//
// The tie rule is the opposite of Contenders', which must keep ties and
// skips on <. A row ranks by margin and then by lower driver id, and the
// walk is in ascending id: a driver whose margin could at best equal the
// root's has a higher id than everyone in the heap, loses the tie-break
// to the root and so to all of them, and is skipped on <=. (Skipping on
// < would only score more.) The floor is closed the same way: topRow
// keeps Margin > 0, so an optimistic margin of 0 is skipped. Both tests
// are false for a NaN, which goes to exact scoring, where !(Margin > 0)
// drops it as topRow's filter does. A row with fewer than k positive
// margins never fills the heap and is pruned by the floor alone.
//
// The per-driver prelude is Contenders', copied rather than shared: as
// a function of its own it costs 312 against the inliner's budget of 80,
// and a call per reachable driver is what this walk saves. The two fuzz
// targets pin the copies. The dropoff-deadline and return-home clauses
// could be bounded the same way and are not: on a 10k-driver day they
// would spare 0.7 % of the exact scores (1.8 % in real-time mode).
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
	sx, sy := s.ix.Project(task.Source)
	dx, dy := s.ix.Project(task.Dest)
	start := len(arena)
	for _, i := range s.reachable(task, now) {
		lx, ly := s.ix.Project(e.states[i].loc)
		pickupKm := lowerKm(lx, ly, sx, sy)
		if _, ok := e.pickupArrival(i, task, now, pickupKm); !ok {
			continue
		}
		hx, hy := s.ix.Project(e.Drivers[i].Dest)
		opt := e.margin(task.Price, q.serviceCost, pickupKm, lowerKm(dx, dy, hx, hy), e.homeKm(i))
		row := arena[start:]
		full := len(row) == k
		if opt <= 0 || full && opt <= row[0].Margin {
			continue
		}
		c, ok := e.candidateFor(i, task, now, q.service, q.serviceCost)
		if !ok || !(c.Margin > 0) {
			continue
		}
		if !full {
			arena = append(arena, c)
			siftUp(arena[start:])
		} else if ranksBefore(c, row[0]) {
			row[0] = c
			siftDown(row)
		}
	}
	sortByDriver(arena[start:])
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
