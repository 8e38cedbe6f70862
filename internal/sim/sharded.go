package sim

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/spatial"
)

// ShardedSource partitions the fleet into per-zone shards — one
// spatial.Index per cell of a coarse zone grid, each holding exactly
// the drivers currently located in its zone — and answers candidate
// queries by asking, one after the other, the shards whose zone
// rectangle intersects the pickup's reachability radius.
//
// Determinism is the design constraint, not an afterthought. Shards
// hold disjoint driver sets; each shard's index hands back its
// reachable drivers already in ascending order — nothing is sorted —
// and the shard scores them in that order; the per-shard slices are
// then merged into the canonical ascending-driver order before the
// dispatcher sees them. The result is bit-identical to ScanSource and
// GridSource for every shard count — the differential tests sweep
// shard counts 1, 2, 4 and 8 to prove exactly that.
//
// A query runs on its caller's goroutine, one shard after the other. A
// shard's share of a query is tens to a few hundred microseconds — the
// order of what handing it to another processor costs (a spawn, a wake
// of a possibly parked thread, a rendezvous), and that cost is the
// host's to decide, run by run (DESIGN.md, "One query, one goroutine").
//
// Drivers migrate between shards as assignments move them (Moved), and
// enter or leave shards on mid-day joins and retirements (Presence) —
// a retired driver costs her shard nothing, unlike the dense
// GridSource where she still occupies a bucket. Pickups near a zone
// border borrow candidates from every zone the radius touches, so
// shard boundaries never change who gets picked, only where the
// lookup happens.
type ShardedSource struct {
	// Shards is the requested zone count; values below 1 are treated
	// as 1. The zone grid is dimensioned close to square (8 → 2×4).
	Shards int

	// Zones optionally fixes the zone decomposition; its cell count
	// overrides Shards. Nil auto-sizes a grid over the fleet's
	// bounding box at Bind time.
	Zones *geo.Grid

	e        *Engine
	zones    *geo.Grid
	idx      []*spatial.Index // zone -> per-zone index over the full id space
	shardOf  []int            // driver -> zone, or -1 while absent
	maxSpeed float64

	// Conservative planar zone rectangles for shard-level pruning, in
	// the same spirit as the index's internal ring bound: degrees
	// scaled so east-west distances are under-, never over-stated.
	rects  []rect
	cosMin float64

	active []int         // query scratch: zones in radius
	heads  []int         // merge scratch
	ids    []int         // index query scratch
	out    [][]Candidate // per-zone candidate scratch
	db     distBatch     // scoring scratch
}

type rect struct{ minLat, maxLat, minLon, maxLon float64 }

var _ CandidateSource = (*ShardedSource)(nil)

// NewShardedSource returns a sharded source with the given zone count
// and an auto-sized zone grid.
func NewShardedSource(shards int) *ShardedSource {
	return &ShardedSource{Shards: shards}
}

// Name implements CandidateSource.
func (s *ShardedSource) Name() string { return fmt.Sprintf("sharded(%d)", s.shardCount()) }

func (s *ShardedSource) shardCount() int {
	if s.Zones != nil {
		return s.Zones.NumCells()
	}
	if s.Shards < 1 {
		return 1
	}
	return s.Shards
}

// zoneDims factors n into a near-square rows×cols decomposition with
// rows*cols == n (primes degrade to 1×n strips).
func zoneDims(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return rows, n / rows
}

// Bind implements CandidateSource. Like GridSource, it rejects a
// configured zone grid whose latitude band is too far from the fleet
// for the conservative planar pre-filtering to hold.
func (s *ShardedSource) Bind(e *Engine) {
	s.e = e
	zones := s.Zones
	if zones == nil {
		rows, cols := zoneDims(s.shardCount())
		zones = geo.NewGrid(fleetBox(e.Drivers), rows, cols)
	}
	checkGridCoversFleet(zones, e.Drivers)
	s.zones = zones

	n := len(e.Drivers)
	nz := zones.NumCells()
	s.idx = make([]*spatial.Index, nz)
	s.rects = make([]rect, nz)
	for z := 0; z < nz; z++ {
		sub := zoneBox(zones, z)
		s.rects[z] = rect{sub.MinLat, sub.MaxLat, sub.MinLon, sub.MaxLon}
		s.idx[z] = spatial.NewSparseIndex(zoneGrid(sub, n, nz), n)
	}
	s.cosMin = math.Min(
		math.Abs(math.Cos(zones.Box.MinLat*math.Pi/180)),
		math.Abs(math.Cos(zones.Box.MaxLat*math.Pi/180)))

	s.maxSpeed = e.Market.SpeedKmh
	s.shardOf = make([]int, 0, n)
	for i := range e.Drivers {
		s.register(i)
	}

	s.active = make([]int, 0, nz)
	s.heads = make([]int, nz)
	s.out = make([][]Candidate, nz)
}

// register takes note of driver i, the next one the source has not
// seen, and indexes her if she is present.
func (s *ShardedSource) register(i int) {
	s.maxSpeed = max(s.maxSpeed, s.e.Drivers[i].SpeedKmh)
	s.shardOf = append(s.shardOf, -1)
	if s.e.present[i] {
		s.insert(i)
	}
}

// insert places driver i into the shard owning her current location.
// The window goes in first, so the index places her once, in the state
// it gives her.
func (s *ShardedSource) insert(i int) {
	st := &s.e.states[i]
	z := s.zones.CellOf(st.loc)
	s.idx[z].SetSpan(i, st.freeAt, s.e.Drivers[i].End)
	s.idx[z].Add(i, st.loc)
	s.shardOf[i] = z
}

// Moved implements CandidateSource: the driver is re-indexed at her new
// location, migrating shards if the assignment (or revocation) carried
// her across a zone border.
func (s *ShardedSource) Moved(i int) {
	z := s.shardOf[i]
	if z < 0 {
		return // retired mid-flight; nothing indexed anywhere
	}
	st := &s.e.states[i]
	nz := s.zones.CellOf(st.loc)
	if nz != z {
		s.idx[z].Remove(i)
		s.idx[nz].Add(i, st.loc)
		s.shardOf[i] = nz
	} else {
		s.idx[z].Move(i, st.loc)
	}
	s.idx[nz].SetSpan(i, st.freeAt, s.e.Drivers[i].End)
}

// Presence implements CandidateSource: joins insert the driver into
// her zone's shard, retirements remove her outright.
func (s *ShardedSource) Presence(i int, present bool) {
	if present {
		if s.shardOf[i] < 0 {
			s.insert(i)
		}
	} else if z := s.shardOf[i]; z >= 0 {
		s.idx[z].Remove(i)
		s.shardOf[i] = -1
	}
}

// Added implements CandidateSource: every shard's id space grows by
// one. The zone grid stays the one Bind laid out; a driver outside it
// is clamped into a border zone, as a pickup is.
func (s *ShardedSource) Added(i int) {
	for _, ix := range s.idx {
		ix.Grow()
	}
	s.register(i)
}

// Candidates implements CandidateSource. The reachability predicate is
// the same as GridSource's; it is evaluated shard-by-shard, skipping
// shards whose zone rectangle lies wholly outside the radius.
func (s *ShardedSource) Candidates(task model.Task, now float64, buf []Candidate) []Candidate {
	e := s.e
	if task.StartBy < now {
		return buf
	}
	minRetire := e.minRetire(task, now)
	radiusKm := s.maxSpeed * (task.StartBy - now) / 3600
	terms := e.orderTerms(task)

	q := s.zones.Box.Clamp(task.Source)
	s.active = s.active[:0]
	for z, ix := range s.idx {
		if ix.Members() == 0 {
			continue
		}
		if s.rectDistKm(z, q)*spatial.Safety > radiusKm {
			continue // no point of this zone can be in range
		}
		s.active = append(s.active, z)
		// The conservative index query, then the exact feasibility
		// checks, into this shard's scratch.
		if e.timeKeyed {
			ix.Expire(now)
		}
		s.ids = ix.AppendReachable(s.ids[:0], task.Source, s.maxSpeed, task.StartBy, now, minRetire)
		s.out[z] = e.scoreCandidates(&s.db, s.ids, task, now, terms, s.out[z][:0])
	}

	// Merge: shards are disjoint and each per-shard slice is already in
	// ascending driver order, so a k-way merge restores the canonical
	// global order the dispatchers' tie-breaking depends on.
	return s.mergeInto(buf)
}

// mergeInto k-way-merges the active shards' sorted candidate slices
// into buf by ascending driver id. The active shard count is small (a
// radius rarely touches more than a handful of zones), so a linear
// scan over the heads beats a heap. The exact output size is known
// upfront, so buf is grown once instead of through append's doubling —
// on the batched hot path, which queries candidates per order per
// window into a pooled buffer, that keeps steady-state merges
// allocation-free.
func (s *ShardedSource) mergeInto(buf []Candidate) []Candidate {
	switch len(s.active) {
	case 0:
		return buf
	case 1:
		return append(buf, s.out[s.active[0]]...)
	}
	total := 0
	for _, z := range s.active {
		total += len(s.out[z])
	}
	if cap(buf)-len(buf) < total {
		grown := make([]Candidate, len(buf), len(buf)+total)
		copy(grown, buf)
		buf = grown
	}
	heads := s.heads[:len(s.active)]
	for k := range heads {
		heads[k] = 0
	}
	for {
		best, bestDriver := -1, 0
		for k, z := range s.active {
			if heads[k] >= len(s.out[z]) {
				continue
			}
			if d := s.out[z][heads[k]].Driver; best < 0 || d < bestDriver {
				best, bestDriver = k, d
			}
		}
		if best < 0 {
			return buf
		}
		buf = append(buf, s.out[s.active[best]][heads[best]])
		heads[best]++
	}
}

// rectDistKm lower-bounds the equirectangular distance from q (clamped
// into the zone box) to any point whose clamped location falls in zone
// z: coordinate gaps in degrees, latitude at the exact scale, longitude
// at the zone box's smallest cosine so east-west separations are never
// overstated.
func (s *ShardedSource) rectDistKm(z int, q geo.Point) float64 {
	const kmPerDeg = geo.EarthRadiusKm * math.Pi / 180
	r := s.rects[z]
	var dLat, dLon float64
	if q.Lat < r.minLat {
		dLat = r.minLat - q.Lat
	} else if q.Lat > r.maxLat {
		dLat = q.Lat - r.maxLat
	}
	if q.Lon < r.minLon {
		dLon = r.minLon - q.Lon
	} else if q.Lon > r.maxLon {
		dLon = q.Lon - r.maxLon
	}
	x := dLon * kmPerDeg * s.cosMin
	y := dLat * kmPerDeg
	return math.Sqrt(x*x + y*y)
}

// zoneBox returns the sub-box of zone cell z.
func zoneBox(zones *geo.Grid, z int) geo.BoundingBox {
	row, col := z/zones.Cols, z%zones.Cols
	latSpan := (zones.Box.MaxLat - zones.Box.MinLat) / float64(zones.Rows)
	lonSpan := (zones.Box.MaxLon - zones.Box.MinLon) / float64(zones.Cols)
	return geo.BoundingBox{
		MinLat: zones.Box.MinLat + float64(row)*latSpan,
		MaxLat: zones.Box.MinLat + float64(row+1)*latSpan,
		MinLon: zones.Box.MinLon + float64(col)*lonSpan,
		MaxLon: zones.Box.MinLon + float64(col+1)*lonSpan,
	}
}

// zoneGrid sizes one shard's fine grid: the fleet splits across nz
// zones, so target a few expected members per cell, as autoGrid does
// for the whole fleet.
func zoneGrid(sub geo.BoundingBox, n, nz int) *geo.Grid {
	dim := int(math.Ceil(math.Sqrt(float64(n) / float64(2*nz))))
	if dim < 1 {
		dim = 1
	}
	if dim > 512 {
		dim = 512
	}
	return geo.NewGrid(sub, dim, dim)
}
