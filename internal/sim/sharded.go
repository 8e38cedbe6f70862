package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/spatial"
)

// ShardedSource partitions the fleet into per-zone shards — one
// spatial.Index per cell of a coarse zone grid, each holding exactly
// the drivers currently located in its zone — and answers candidate
// queries by fanning the reachability query out across the shards
// whose zone rectangle intersects the pickup's reachability radius,
// in parallel when there is more than one.
//
// Determinism is the design constraint, not an afterthought. Shards
// hold disjoint driver sets; each shard reports its feasible
// candidates in ascending driver order (the exact feasibility checks
// of Algorithms 3–4 are pure per-driver functions of engine state, so
// it does not matter which goroutine evaluates them); and the merged
// slice is restored to the canonical ascending-driver order before the
// dispatcher sees it. The result is bit-identical to ScanSource and
// GridSource for every shard count — the differential tests sweep
// shard counts 1, 2, 4 and 8 to prove exactly that. Concurrency here
// parallelizes candidate *generation* per arrival; commits stay
// sequential in event order, which is what keeps the simulation
// reproducible.
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

	// Serial disables concurrent shard queries (the zone partition is
	// still used) — an ablation knob for separating the partition's
	// effect from the parallelism's.
	Serial bool

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
	ids    [][]int       // per-zone query scratch
	out    [][]Candidate // per-zone candidate scratch
	dbs    []distBatch   // per-zone scoring scratch (shards run concurrently)
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
	s.shardOf = make([]int, n)
	for i, d := range e.Drivers {
		if d.SpeedKmh > s.maxSpeed {
			s.maxSpeed = d.SpeedKmh
		}
		s.shardOf[i] = -1
		if e.present[i] {
			s.insert(i)
		}
	}

	s.active = make([]int, 0, nz)
	s.heads = make([]int, nz)
	s.ids = make([][]int, nz)
	s.out = make([][]Candidate, nz)
	s.dbs = make([]distBatch, nz)
}

// insert places driver i into the shard owning her current location.
func (s *ShardedSource) insert(i int) {
	st := &s.e.states[i]
	z := s.zones.CellOf(st.loc)
	s.idx[z].Add(i, st.loc)
	s.idx[z].SetSpan(i, st.freeAt, s.e.Drivers[i].End)
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

// Candidates implements CandidateSource. The reachability predicate is
// the same as GridSource's; it is evaluated shard-by-shard, skipping
// shards whose zone rectangle lies wholly outside the radius, and the
// surviving shards run concurrently.
func (s *ShardedSource) Candidates(task model.Task, now float64, buf []Candidate) []Candidate {
	e := s.e
	if task.StartBy < now {
		return buf
	}
	minRetire := task.EndBy
	if e.RealTime {
		minRetire = now
	}
	radiusKm := s.maxSpeed * (task.StartBy - now) / 3600

	q := s.zones.Box.Clamp(task.Source)
	s.active = s.active[:0]
	for z := range s.idx {
		if s.idx[z].Members() == 0 {
			continue
		}
		if s.rectDistKm(z, q)*spatial.Safety > radiusKm {
			continue // no point of this zone can be in range
		}
		s.active = append(s.active, z)
	}

	terms := e.orderTerms(task)

	// Fan out only when the runtime can actually run shards in
	// parallel: on a single-P runtime goroutines are pure overhead and
	// the serial path computes the identical result. The caller takes
	// the first shard itself rather than parking at the rendezvous —
	// one fewer goroutine spawn per query, and with two active shards
	// (the common radius) the only spawn overlaps the caller's own
	// shard work. Shards write disjoint s.out slots, so the split
	// cannot perturb the merge.
	if len(s.active) > 1 && !s.Serial && runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		wg.Add(len(s.active) - 1)
		for _, z := range s.active[1:] {
			go func(z int) {
				defer wg.Done()
				s.queryShard(z, task, now, minRetire, terms)
			}(z)
		}
		s.queryShard(s.active[0], task, now, minRetire, terms)
		wg.Wait()
	} else {
		for _, z := range s.active {
			s.queryShard(z, task, now, minRetire, terms)
		}
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

// queryShard runs the conservative index query plus the exact
// feasibility checks for one shard, into that shard's scratch. Driver
// state is only read here, and the one thing written — the snap memo
// of each driver scored, under a market batcher — is written for this
// shard's own drivers, which no other shard holds: that is what makes
// the shard fan-out safe.
func (s *ShardedSource) queryShard(z int, task model.Task, now, minRetire float64, terms orderTerms) {
	ids := s.ids[z][:0]
	s.idx[z].NearReachable(task.Source, s.maxSpeed, task.StartBy, now, minRetire,
		func(id int) { ids = append(ids, id) })
	slices.Sort(ids)
	out := s.e.scoreCandidates(&s.dbs[z], ids, task, now, terms, s.out[z][:0])
	s.ids[z], s.out[z] = ids, out
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
