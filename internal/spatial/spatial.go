// Package spatial maintains a bucketed index of moving points (drivers)
// over the cells of a geo.Grid, answering the radius queries the online
// dispatchers need: "which drivers could possibly be within R kilometers
// of this pickup?". It is the candidate pre-filter promised by the grid's
// doc comment — the exact per-driver feasibility checks in the simulator
// remain the final arbiter, so the index only has to be *conservative*:
// it may return points that turn out to be too far, but it must never
// drop a point that is within the radius.
//
// The index buckets each point into its grid cell and serves a query by
// scanning the square of cells around the query point's cell. The
// square reaches out to ring r only while that ring's distance lower
// bound (r-1)·minCellSpan — scaled by a safety factor that absorbs
// projection distortion — does not exceed the query radius, so a query
// touches O(points within ~R) rather than all N points. Points outside
// the grid's bounding box are clamped into boundary cells; because
// clamping is a projection onto a convex box, it never increases
// pairwise distances, so the pruning bound stays valid for out-of-box
// points too.
//
// A cell holds packed entries — id, planar coordinates, availability
// window, and a payload the caller owns — one cache line each, so a
// scan is a plain loop over contiguous memory. The index is also aware
// of time: an entry whose window cannot matter to any query asked so
// far (its free time lies beyond every pickup deadline seen: parked) or
// to any query still to come (it retired before the caller's clock:
// expired) lies on one side or the other of its cell's live range,
// which is all a window query reads. The two clocks are two numbers; a
// cell keeps its parked entries in the order they wake and catches up
// with the clocks when a query next comes to it (see Index). The
// per-entry predicate is unchanged, so the two regions only hold
// entries it would reject.
//
// Every window query is one walk: cells come nearest ring first — the
// best-first order of incremental nearest-neighbour search over a bucket
// grid (Hjaltason and Samet, "Distance Browsing in Spatial Databases",
// TODS 1999) — through a Cursor, each with a bound on all of its entries
// at once, from two layers split by HomeKm (see Load) that a caller can
// stop each at the ring its ceiling rules out: the stopping rule of
// Fagin, Lotem and Naor's threshold algorithm (PODS 2001). The walk has
// two consumers. A caller that is after an extremum and can bound it
// steps the Cursor (Reachable) itself, and passes over most cells behind
// a good incumbent without reading a line of theirs. The forms that
// return ids (NearReachable, AppendReachable) step the same Cursor
// through every cell, collect the accepted ids in a bitmap over the id
// space and sweep it in ascending order, so no caller sorts.
//
// Distance checks use planar kilometer coordinates under a fixed
// conservative projection (see Project) so the query hot path does no
// per-pair trigonometry. The conservativeness contract is stated in
// terms of equirectangular distance: a query with radius R visits every
// point whose equirectangular distance to the query point is at most
// R/Safety. Callers whose true travel metric can undercut
// equirectangular distance (it never does for the metrics in this
// repository: equirectangular itself, haversine at city scale, and road
// networks, whose path lengths exceed straight-line distance) must widen
// the radius accordingly.
package spatial

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/geo"
)

// Safety discounts every pruning bound: a cell ring or an individual
// point is skipped only when its distance lower bound *after* multiplying
// by Safety still exceeds the query radius. The slack absorbs the small
// (well under 1% at city scale) disagreement between the equirectangular
// planar model the bounds are computed in and other city-scale metrics
// such as haversine.
const Safety = 0.9

// Index is a driver-over-grid-cells bucket index. Construct with
// NewIndex (every point present) or NewSparseIndex (membership managed
// with Add and Remove — every id starts absent — or every id placed at
// once with Load, as NewIndex does). It is not safe
// for concurrent use, queries included: a query marks its result in the
// index's bitmap, settles the cells it comes to, and through a Cursor
// writes the caller's findings into cells.
//
// Besides its location, every point carries an availability window
// [freeAt, retireAt) — for a driver: when she can next depart (shift
// start, or the lock release of her in-flight task) and when her shift
// ends. The window queries (NearReachable, AppendReachable, Reachable)
// combine the window with the distance bound, and scan only the live
// range of a cell. Two clocks say what may lie outside it: the
// watermark, the largest time passed to Expire, and the horizon, the
// largest byTime any window query has asked for. A point with
// retireAt < watermark is expired — a window query demands retireAt >=
// minRetire, so one whose minRetire is at or above the watermark can
// skip it, and one that asks below it scans every region. A point with
// freeAt > horizon is parked: every query so far would have rejected it
// (it departs after the deadline).
//
// Raising a clock moves nothing. A cell's entries lie as [parked, by
// descending FreeAt | live | expired], and its header bounds from below
// the FreeAt of its parked and the RetireAt of its live entries, so a
// window query sees from the header alone whether a clock has passed
// one of them since the cell was last settled, and settles it first:
// the parked boundary steps over the entries the horizon has overtaken
// — they lie next to the live range, nothing is copied — and the live
// entries the watermark has passed are swapped out behind it. So an
// entry outside the live range is parked beyond the horizon or expired
// below the watermark, or its cell's header says the cell is behind and
// the next visit settles it before reading; a cell no query comes to is
// never settled at all. Both rules only ever skip entries the per-entry
// predicate rejects, so the accepted set is that of a scan over every
// present point, whatever the order of queries, Expire calls and
// mutations.
type Index struct {
	grid *geo.Grid // the near layer's
	far  *geo.Grid // the far layer's, over the same box; nil while there is none

	loc      []geo.Point // id -> current location
	freeAt   []float64   // id -> earliest departure time
	retireAt []float64   // id -> end of availability
	cell     []int32     // id -> current cell, or absentCell when removed
	slot     []int32     // id -> position inside cells[cell[id]].ents

	cells   []cell  // the near layer's, then the far layer's
	members int     // number of present points
	nearKm  float64 // h₀, the near layer's ceiling (see Load): +Inf while there is one layer

	horizon   float64 // largest byTime of any window query, +Inf read as the largest finite time
	watermark float64 // largest time passed to Expire
	stats     Stats

	marks []uint64 // accepted ids of the query in progress, one bit each
	ids   []int    // scratch of the callback queries

	minSpanKm float64 // conservative one-cell extent for ring bounds, near layer
	farSpanKm float64 // the same, far layer
	kmPerLon  float64 // km per degree of longitude at the box's widest-cos latitude
}

// Stats counts what keeping the cells in step with the two clocks has
// cost since the index was made: plain counters, for the one goroutine
// an Index has.
type Stats struct {
	Woken   uint64 // entries a settling cell took from parked to live
	Expired uint64 // entries a settling cell took, from either, to expired
	Sorts   uint64 // parked regions, of two entries or more, a settling cell put in wake order (Load's are not counted)
	Shifted uint64 // entries moved over for a park into, or a leave from, a sorted parked region
}

// Stats returns the counters.
func (ix *Index) Stats() Stats { return ix.stats }

// Entry is one present point as a scan sees it: everything the
// predicate reads and the caller's payload, 64 bytes — one cache line.
// The index owns PX, PY, FreeAt, RetireAt and ID, which a caller only
// reads. The payload is the caller's and the index never interprets it
// beyond the rules stated at HomeKm and Node: it travels with the entry
// through every swap and rebucketing and is dropped by Remove.
type Entry struct {
	PX, PY           float64 // planar km coordinates (see Project)
	FreeAt, RetireAt float64
	// HomeX, HomeY are set by SetHome and never change otherwise (NaN
	// until set): for a driver, her projected destination.
	HomeX, HomeY float64
	// HomeKm and Node are what the caller derives from the point's
	// location, and are given with it, to Add or Load and to every Move:
	// HomeKm NaN when the caller does not know it, Node -1 when it has
	// none. For a driver: the travel distance from where she is to her
	// destination, and on a road market the graph node she stands
	// nearest.
	HomeKm float64
	ID     int32
	Node   int32
}

// cell is one grid cell's points in three regions — ents[:park] parked,
// ents[park:live] live, ents[live:] expired — as of the last time it was
// settled (see Index); the header is one cache line.
type cell struct {
	ents       []Entry
	park, live int32
	sorted     bool    // ents[:park] is in descending FreeAt: done by the first settle that wakes, kept since
	wakeAt     float64 // at most every parked entry's FreeAt; +Inf if none
	expireAt   float64 // at most every live entry's RetireAt
	maxHomeKm  float64 // at least every live entry's HomeKm; see Cursor.MaxHomeKm
}

// absentCell marks an id that is allocated but not currently indexed
// (removed, or never added on a sparse index).
const absentCell = -1

// kmPerLat converts degrees of latitude to kilometers.
const kmPerLat = geo.EarthRadiusKm * math.Pi / 180

// Project maps p to planar kilometer coordinates in which the Euclidean
// distance never exceeds the equirectangular distance for points at the
// box's latitudes: longitude is scaled with the *smallest* cosine the
// box reaches, so east-west separations are under-, never over-stated.
// Distance checks against these coordinates are therefore lower bounds,
// exactly what a conservative pre-filter needs — and they avoid the
// per-pair trigonometry of the true metric on the query hot path. It is
// exported so a caller can put the same bound — Safety × the Euclidean
// distance of two projected points never exceeds their travel distance
// — under its own pruning (sim.GridSource.Contenders).
func (ix *Index) Project(p geo.Point) (x, y float64) {
	return p.Lon * ix.kmPerLon, p.Lat * kmPerLat
}

// NewIndex builds an index of the given points over grid, with no HomeKm
// known and no Node. Point i is addressed as id i in every other method.
// Every availability window starts as (-Inf, +Inf), i.e. always
// available; narrow it with SetSpan.
func NewIndex(grid *geo.Grid, locs []geo.Point) *Index {
	ix := NewSparseIndex(grid, len(locs))
	nowhere := geo.Point{Lat: math.NaN(), Lon: math.NaN()}
	ix.Load(func(id int) (geo.Point, geo.Point, float64, int32) { return locs[id], nowhere, math.NaN(), -1 }, false)
	return ix
}

// NewSparseIndex allocates an index with id space [0, n) over grid in
// which every id starts absent: queries visit nothing until points are
// inserted with Add. A cell is built empty, unsorted and with nothing
// due; no query allocates.
func NewSparseIndex(grid *geo.Grid, n int) *Index {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("spatial: id space %d exceeds int32", n))
	}
	h, w := grid.CellSpanKm()
	// Derive the longitude scale from the same conservative cell width
	// the ring-pruning bound uses, so the two can never drift apart: one
	// cell spans (lonSpan/Cols) degrees and w kilometers.
	kmPerLon := w * float64(grid.Cols) / (grid.Box.MaxLon - grid.Box.MinLon)
	ix := &Index{
		grid:      grid,
		loc:       make([]geo.Point, n),
		freeAt:    make([]float64, n),
		retireAt:  make([]float64, n),
		cell:      make([]int32, n),
		slot:      make([]int32, n),
		cells:     make([]cell, grid.NumCells(), grid.NumCells()*10/9+1), // and room for most far layers (see split)
		nearKm:    math.Inf(1),
		horizon:   math.Inf(-1),
		watermark: math.Inf(-1),
		marks:     make([]uint64, (n+63)/64),
		minSpanKm: min(h, w),
		kmPerLon:  kmPerLon,
	}
	for id := 0; id < n; id++ {
		ix.freeAt[id] = math.Inf(-1)
		ix.retireAt[id] = math.Inf(1)
		ix.cell[id] = absentCell
	}
	emptyCells(ix.cells)
	return ix
}

// emptyCells builds cells empty, unsorted and with nothing due. Every
// cell starts with room for a few entries in one shared block, laid out
// in cell order like the scan walks it; a cell that outgrows its share
// moves to a block of its own.
func emptyCells(cells []cell) {
	arena := make([]Entry, cellReserve*len(cells))
	for c := range cells {
		cells[c] = cell{ents: arena[c*cellReserve : c*cellReserve : (c+1)*cellReserve],
			wakeAt: math.Inf(1), expireAt: math.Inf(1), maxHomeKm: math.Inf(-1)}
	}
}

// cellOf is the cell an entry at p whose HomeKm is homeKm belongs in:
// of the near layer's grid, or of the far layer's, after the near cells.
func (ix *Index) cellOf(p geo.Point, homeKm float64) int32 {
	if orInf(homeKm) > ix.nearKm {
		return int32(ix.grid.NumCells() + ix.far.CellOf(p))
	}
	return int32(ix.grid.CellOf(p))
}

// cellReserve is the capacity a cell is built with. The sources size
// their grids for about two points a cell, so most cells never grow.
const cellReserve = 4

// Grow extends the id space by one and returns the new id, which starts
// absent with the window (-Inf, +Inf).
func (ix *Index) Grow() int {
	id := len(ix.loc)
	if id >= math.MaxInt32 {
		panic("spatial: id space exceeds int32")
	}
	ix.loc = append(ix.loc, geo.Point{})
	ix.freeAt = append(ix.freeAt, math.Inf(-1))
	ix.retireAt = append(ix.retireAt, math.Inf(1))
	ix.cell = append(ix.cell, absentCell)
	ix.slot = append(ix.slot, 0)
	if len(ix.marks)*64 <= id {
		ix.marks = append(ix.marks, 0)
	}
	return id
}

// Len returns the size of the id space (present or not).
func (ix *Index) Len() int { return len(ix.loc) }

// Members returns the number of currently present points.
func (ix *Index) Members() int { return ix.members }

// Contains reports whether id is currently present in the index.
func (ix *Index) Contains(id int) bool {
	ix.checkID(id)
	return ix.cell[id] != absentCell
}

// NearKm returns h₀, the largest HomeKm of the near layer (see Load):
// +Inf while there is one layer.
func (ix *Index) NearKm() float64 { return ix.nearKm }

// Far reports whether id is present in the far layer.
func (ix *Index) Far(id int) bool { return ix.Contains(id) && int(ix.cell[id]) >= ix.grid.NumCells() }

// Location returns the current location of id.
func (ix *Index) Location(id int) geo.Point { return ix.loc[id] }

func (ix *Index) checkID(id int) {
	if id < 0 || id >= len(ix.loc) {
		panic(fmt.Sprintf("spatial: id %d out of range [0,%d)", id, len(ix.loc)))
	}
}

// Add inserts the absent id at location p, with homeKm and node as its
// HomeKm and Node (see Entry), directly in the region its availability
// window puts it in: the window is preserved across Remove/Add cycles,
// and a SetSpan before the first Add costs nothing but the stores. It panics if id is
// already present — membership bugs (a driver placed twice) must not
// pass silently.
func (ix *Index) Add(id int, p geo.Point, homeKm float64, node int32) {
	ix.checkID(id)
	if ix.cell[id] != absentCell {
		panic(fmt.Sprintf("spatial: Add of already-present id %d", id))
	}
	ix.loc[id] = p
	px, py := ix.Project(p)
	nan := math.NaN()
	ix.insert(Entry{PX: px, PY: py, FreeAt: ix.freeAt[id], RetireAt: ix.retireAt[id],
		HomeX: nan, HomeY: nan, HomeKm: homeKm, ID: int32(id), Node: node}, ix.cellOf(p, homeKm))
	ix.members++
}

// Load adds every id at once to an index that holds none: what Add over
// each id would make, but for the order in a cell's parked region, and
// for less than those Adds cost, sort included. at gives an id its
// location, its home (as SetHome), its HomeKm and its Node; its window is
// the one SetSpan stored. Each cell is laid out in one pass — its entries
// in the regions their windows put them in under the two clocks, the
// parked region already in wake order, so that no query pays the cell's
// first sort, and room for as many entries as Add's appends would have
// grown it to — and its header is exact. It panics if an id is present.
//
// With layered, Load splits the points at h₀, their 90th percentile
// HomeKm (NaN read as +Inf), until the next Load: the near layer, on the
// index's grid, holds every entry whose HomeKm is at most h₀, the far
// layer the rest, on a grid over the same box of a tenth the cells.
// Without layered, or with no point beyond h₀, there is one layer.
func (ix *Index) Load(at func(id int) (p, home geo.Point, homeKm float64, node int32), layered bool) {
	if ix.members != 0 {
		panic(fmt.Sprintf("spatial: Load into an index that holds %d points", ix.members))
	}
	n := len(ix.loc)
	// Each id's HomeX, HomeY and HomeKm; its Node waits in its slot,
	// which the layout below overwrites.
	homes := make([][3]float64, n)
	for id := range n {
		p, home, km, node := at(id)
		ix.loc[id] = p
		hx, hy := ix.Project(home)
		homes[id] = [3]float64{hx, hy, km}
		ix.slot[id] = node
	}
	ix.split(homes, layered)
	// A cell's room (want): near, every point of its area; far, cellReserve
	// more than it holds. The ways home that cross h₀ find room in either.
	start := make([]int32, len(ix.cells)+1)
	want := make([]int32, len(ix.cells))
	for id := range n {
		c := ix.cellOf(ix.loc[id], homes[id][2])
		ix.cell[id] = c
		start[c+1]++
		want[ix.grid.CellOf(ix.loc[id])]++
	}
	most := 0
	for c := range ix.cells {
		if c >= ix.grid.NumCells() {
			want[c] = start[c+1] + cellReserve
		}
		most = max(most, int(want[c]))
		start[c+1] += start[c]
	}
	// Every cell's ids in a stretch of keys, ascending: what the regions
	// are made of and the sort moves.
	keys := make([]int32, n)
	next := slices.Clone(start[:len(ix.cells)])
	for id := range n {
		c := ix.cell[id]
		keys[next[c]] = int32(id)
		next[c]++
	}
	// The capacities Add's appends take a cell through from its reserve:
	// a cell that wants more than that gets the one it would have
	// reached, cut from one block for them all.
	grown := []int{cellReserve}
	for g := make([]Entry, 0, cellReserve); cap(g) < most; grown = append(grown, cap(g)) {
		g = append(g[:cap(g)], Entry{})
	}
	room := func(k int) int {
		i, _ := slices.BinarySearch(grown, k)
		return grown[i]
	}
	total := 0
	for c := range ix.cells {
		if k := int(want[c]); k > cap(ix.cells[c].ents) {
			total += room(k)
		}
	}
	block := make([]Entry, total)
	for c := range ix.cells {
		cl := &ix.cells[c]
		seg := keys[start[c]:start[c+1]]
		if int(want[c]) > cap(cl.ents) {
			r := room(int(want[c]))
			cl.ents, block = block[:0:r], block[r:]
		}
		// The parked to the front and the expired to the back, as insert
		// puts them; then the parked in wake order.
		park, live := 0, len(seg)
		for i := 0; i < live; {
			switch id := seg[i]; {
			case ix.retireAt[id] < ix.watermark:
				live--
				seg[i], seg[live] = seg[live], id
			case ix.freeAt[id] > ix.horizon:
				seg[i], seg[park] = seg[park], id
				park++
				i++
			default:
				i++
			}
		}
		ix.byWake(seg[:park])
		cl.ents = cl.ents[:len(seg)]
		cl.park, cl.live, cl.sorted = int32(park), int32(live), true
		cl.wakeAt, cl.expireAt, cl.maxHomeKm = math.Inf(1), math.Inf(1), math.Inf(-1)
		for i, id := range seg {
			px, py := ix.Project(ix.loc[id])
			h := &homes[id]
			e := &cl.ents[i]
			*e = Entry{PX: px, PY: py, FreeAt: ix.freeAt[id], RetireAt: ix.retireAt[id],
				HomeX: h[0], HomeY: h[1], HomeKm: h[2], ID: id, Node: ix.slot[id]}
			ix.slot[id] = int32(i)
			switch {
			case i < park:
				cl.wakeAt = e.FreeAt // the last parked wakes first
			case i < live:
				cl.expireAt = min(cl.expireAt, e.RetireAt)
				cl.maxHomeKm = max(cl.maxHomeKm, orInf(e.HomeKm))
			}
		}
	}
	ix.members = n
}

// split sets h₀ from the HomeKm of homes and lays out the far layer's
// cells, empty, after the near layer's (see Load).
func (ix *Index) split(homes [][3]float64, layered bool) {
	ix.nearKm, ix.far, ix.cells = math.Inf(1), nil, ix.cells[:ix.grid.NumCells()]
	if !layered || len(homes) == 0 {
		return
	}
	// h₀ is the least of the k longest ways home, selected in place
	// rather than sorted: the far layer holds fewer than k of the points.
	k := len(homes)/10 + 1
	ways := make([]float64, len(homes))
	for id := range homes {
		ways[id] = orInf(homes[id][2])
	}
	h0 := nth(ways, len(ways)-k, 2*bits.Len(uint(len(ways))))
	if slices.Max(ways[len(ways)-k:]) == h0 {
		return // no point is beyond h₀
	}
	ix.nearKm = h0
	scale := math.Sqrt(float64(k) / float64(len(homes)))
	ix.far = geo.NewGrid(ix.grid.Box, max(1, int(math.Ceil(scale*float64(ix.grid.Rows)))), max(1, int(math.Ceil(scale*float64(ix.grid.Cols)))))
	h, w := ix.far.CellSpanKm()
	ix.farSpanKm = min(h, w)
	ix.cells = slices.Grow(ix.cells, ix.far.NumCells())[:len(ix.cells)+ix.far.NumCells()]
	emptyCells(ix.cells[ix.grid.NumCells():])
}

// nth reorders a, which holds no NaN, so that a[r] is what an ascending
// sort would put there, with nothing greater before it and nothing less
// after it, and returns it: Hoare's selection, partitioning
// about the median of three until r's side is one value. Past the given
// rounds (split allows 2 log₂ n, which only a pathological order uses up)
// it sorts what is left.
func nth(a []float64, r, rounds int) float64 {
	lo, hi := 0, len(a)-1
	for ; lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(a[lo : hi+1])
			break
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		pivot := max(min(x, y), min(max(x, y), z))
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo:j+1] is at most the pivot, a[i:hi+1] at least, and
		// whatever lies between them is the pivot.
		switch {
		case r <= j:
			hi = j
		case r >= i:
			lo = i
		default:
			return a[r]
		}
	}
	return a[r]
}

// byWake puts ids in descending free time: by insertion, with the
// comparison inlined, for the few a cell mostly holds, and by
// slices.SortFunc for a hot spot's hundreds.
func (ix *Index) byWake(ids []int32) {
	free := ix.freeAt
	if len(ids) > 16 {
		slices.SortFunc(ids, func(a, b int32) int { return cmp.Compare(free[b], free[a]) })
		return
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && free[ids[j-1]] < free[ids[j]]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}

// SetHome sets the static half of id's payload (see Entry) to home,
// projected. It panics if id is absent: the payload lives in the entry,
// and Remove drops it.
func (ix *Index) SetHome(id int, home geo.Point) {
	e := ix.entry(id, "SetHome")
	e.HomeX, e.HomeY = ix.Project(home)
}

// Lookup returns a copy of id's entry, and whether id is present.
func (ix *Index) Lookup(id int) (Entry, bool) {
	ix.checkID(id)
	if ix.cell[id] == absentCell {
		return Entry{}, false
	}
	return ix.cells[ix.cell[id]].ents[ix.slot[id]], true
}

// entry returns the present id's entry, panicking in op's name if id is
// absent.
func (ix *Index) entry(id int, op string) *Entry {
	ix.checkID(id)
	c := ix.cell[id]
	if c == absentCell {
		panic(fmt.Sprintf("spatial: %s of absent id %d", op, id))
	}
	return &ix.cells[c].ents[ix.slot[id]]
}

// Remove detaches id from the index (driver retirement): subsequent
// queries never visit it. The id keeps its slot in the id space and may
// be re-inserted with Add. It panics if id is absent.
func (ix *Index) Remove(id int) {
	ix.entry(id, "Remove")
	ix.extract(int32(id))
	ix.cell[id] = absentCell
	ix.members--
}

// Move updates id's location, rebucketing it if it crossed a cell
// boundary or its HomeKm crossed into the other layer, and replaces what
// the caller derived from the old one by homeKm and node (see Entry). It
// panics if id is absent.
func (ix *Index) Move(id int, p geo.Point, homeKm float64, node int32) {
	e := ix.entry(id, "Move")
	ix.loc[id] = p
	e.PX, e.PY = ix.Project(p)
	e.HomeKm, e.Node = homeKm, node
	if c := ix.cellOf(p, homeKm); c != ix.cell[id] {
		moved := *e
		ix.extract(int32(id))
		ix.insert(moved, c)
	} else if cl := &ix.cells[c]; cl.park <= ix.slot[id] && ix.slot[id] < cl.live {
		cl.maxHomeKm = max(cl.maxHomeKm, orInf(homeKm))
	}
}

// SetSpan sets id's availability window: freeAt is the earliest time the
// point can start moving, retireAt the time it stops being available.
// A present point moves to the region the new window puts it in, so one
// that re-opens a parked or expired id is seen by the next query.
func (ix *Index) SetSpan(id int, freeAt, retireAt float64) {
	ix.checkID(id)
	ix.freeAt[id] = freeAt
	ix.retireAt[id] = retireAt
	c := ix.cell[id]
	if c == absentCell {
		return
	}
	e := ix.cells[c].ents[ix.slot[id]]
	e.FreeAt, e.RetireAt = freeAt, retireAt
	ix.extract(int32(id))
	ix.insert(e, c)
}

// Expire tells the index that the caller's clock has reached now: no
// later window query will ask for a point retiring before now (its
// minRetire is at least its own now), so the points that already have
// leave the live range of their cells for good — each cell when a query
// next comes to it; the call itself stores one number — until a SetSpan
// re-opens one. The promise is about speed, not results: a query whose
// minRetire does lie below the watermark scans the expired too. Calls
// with a time at or below the watermark do nothing, so only a caller
// whose clock is monotone gains from calling it.
func (ix *Index) Expire(now float64) {
	if now > ix.watermark {
		ix.watermark = now
	}
}

// move copies the entry at slot from of cl to slot to, which holds
// nothing that is still needed, and records where it now is.
func (ix *Index) move(cl *cell, to, from int32) {
	if to != from {
		cl.ents[to] = cl.ents[from]
		ix.slot[cl.ents[to].ID] = to
	}
}

// insert puts e, whose id is in no cell, into cell c, in the region its
// window names under the two clocks as they stand. The free slot starts
// behind the expired and is handed down a region at a time, the first
// entry of each region it passes moving to that region's end. In a
// sorted parked region it then goes on down past the entries that wake
// before e — those of one cell, which any scan of the cell reads too.
func (ix *Index) insert(e Entry, c int32) {
	cl := &ix.cells[c]
	ix.cell[e.ID] = c
	at := int32(len(cl.ents))
	cl.ents = append(cl.ents, e)
	if !(e.RetireAt < ix.watermark) {
		ix.move(cl, at, cl.live)
		at = cl.live
		cl.live++
		if e.FreeAt > ix.horizon {
			ix.move(cl, at, cl.park)
			at = cl.park
			cl.park++
			cl.wakeAt = min(cl.wakeAt, e.FreeAt)
			for ; cl.sorted && at > 0 && cl.ents[at-1].FreeAt < e.FreeAt; at-- {
				ix.move(cl, at, at-1)
				ix.stats.Shifted++
			}
		} else {
			cl.expireAt = min(cl.expireAt, e.RetireAt)
			cl.maxHomeKm = max(cl.maxHomeKm, orInf(e.HomeKm))
		}
	}
	cl.ents[at] = e
	ix.slot[e.ID] = at
}

// extract takes id's entry out of its cell: insert run backwards. The
// gap is closed within a sorted parked region, filled from the end of an
// unsorted one, and then handed up, each region it passes giving its
// last entry for its first slot. The header is left alone: its bounds
// hold without the entry, and the next settle makes them exact.
func (ix *Index) extract(id int32) {
	cl := &ix.cells[ix.cell[id]]
	at := ix.slot[id]
	if at < cl.park {
		cl.park--
		if !cl.sorted {
			ix.move(cl, at, cl.park)
			at = cl.park
		}
		for ; at < cl.park; at++ {
			ix.move(cl, at, at+1)
			ix.stats.Shifted++
		}
	}
	if at < cl.live {
		cl.live--
		ix.move(cl, at, cl.live)
		at = cl.live
	}
	last := int32(len(cl.ents) - 1)
	ix.move(cl, at, last)
	cl.ents = cl.ents[:last]
}

// behind reports whether a clock has passed an entry of cl's since cl was
// last settled — or may have: the header's bounds can be low.
func (ix *Index) behind(cl *cell) bool {
	return cl.wakeAt <= ix.horizon || cl.expireAt < ix.watermark
}

// settle brings cl up to the two clocks. The parked boundary steps over
// every entry the horizon has overtaken, nearest first — the region is
// sorted for it once, the first time, unless Load laid it out sorted, and
// kept sorted by insert and extract — and one the watermark passed while
// it was parked goes straight on to the expired; then, if the watermark
// has passed a live entry, those it has are swapped out of the live
// range. Both leave the header exact.
func (ix *Index) settle(cl *cell) {
	if cl.wakeAt <= ix.horizon {
		if parked := cl.ents[:cl.park]; !cl.sorted && len(parked) > 1 {
			ix.stats.Sorts++
			slices.SortFunc(parked, func(a, b Entry) int { return cmp.Compare(b.FreeAt, a.FreeAt) })
			for i := range parked {
				ix.slot[parked[i].ID] = int32(i)
			}
		}
		cl.sorted = true
		for cl.park > 0 && cl.ents[cl.park-1].FreeAt <= ix.horizon {
			cl.park--
			if e := &cl.ents[cl.park]; e.RetireAt < ix.watermark {
				cl.live--
				ix.swap(cl, cl.park, cl.live)
				ix.stats.Expired++
			} else {
				cl.expireAt = min(cl.expireAt, e.RetireAt)
				cl.maxHomeKm = max(cl.maxHomeKm, orInf(e.HomeKm))
				ix.stats.Woken++
			}
		}
		cl.wakeAt = math.Inf(1)
		if cl.park > 0 {
			cl.wakeAt = cl.ents[cl.park-1].FreeAt
		}
	}
	if cl.expireAt < ix.watermark {
		cl.expireAt = math.Inf(1)
		for i := cl.park; i < cl.live; {
			if e := &cl.ents[i]; e.RetireAt < ix.watermark {
				cl.live--
				ix.swap(cl, i, cl.live)
				ix.stats.Expired++
			} else {
				cl.expireAt = min(cl.expireAt, e.RetireAt)
				i++
			}
		}
	}
}

// swap exchanges two entries of cl and records their new slots.
func (ix *Index) swap(cl *cell, i, j int32) {
	cl.ents[i], cl.ents[j] = cl.ents[j], cl.ents[i]
	ix.slot[cl.ents[i].ID], ix.slot[cl.ents[j].ID] = i, j
}

// NearReachable calls visit for every point AppendReachable would
// return, in the same ascending order.
func (ix *Index) NearReachable(p geo.Point, speedKmh, byTime, now, minRetire float64, visit func(id int)) {
	ix.ids = ix.AppendReachable(ix.ids[:0], p, speedKmh, byTime, now, minRetire)
	for _, id := range ix.ids {
		visit(id)
	}
}

// AppendReachable appends to buf, in ascending order, the id of every
// point that could move from its current location to p by time byTime:
// it retires no earlier than minRetire, and traveling at speedKmh from
// the later of its free time and now leaves enough budget to cover the
// (Safety-scaled equirectangular) distance. The caller supplies
// speedKmh as an upper bound on any point's true speed, making the
// result a superset of the truly reachable points; exact feasibility
// stays with the caller.
func (ix *Index) AppendReachable(buf []int, p geo.Point, speedKmh, byTime, now, minRetire float64) []int {
	lo, hi := len(ix.marks), -1 // bitmap words touched
	c := ix.Reachable(p, speedKmh, byTime, now, minRetire)
	for c.Next() {
		ents := c.Entries()
		for i := range ents {
			e := &ents[i]
			if _, ok := c.Reach(e); !ok {
				continue
			}
			w := int(e.ID >> 6)
			ix.marks[w] |= 1 << (uint(e.ID) & 63)
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	for w := lo; w <= hi; w++ {
		word := ix.marks[w]
		ix.marks[w] = 0
		for ; word != 0; word &= word - 1 {
			buf = append(buf, w<<6|bits.TrailingZeros64(word))
		}
	}
	return buf
}

// rings is how far out, in cells of grid, a scan of radiusKm reaches:
// every point in a cell r rings out is at least (r-1) cell spans (spanKm)
// from any point in the center cell, so the square stops at the first
// ring that bound puts beyond the radius.
func rings(grid *geo.Grid, spanKm, radiusKm float64) int {
	rings := 1
	for rings < max(grid.Rows, grid.Cols) && float64(rings)*spanKm*Safety <= radiusKm {
		rings++
	}
	return rings
}

// Cursor is the walk of a window query, the one AppendReachable steps
// too, handed to a caller that wants the entries rather than the ids and
// has bounds of its own to apply. The caller steps with Next through the
// non-empty cells of each layer's scanned square — the center cell
// first, then ring after ring, the layers merged by RingKm, so that what
// lies nearest is met first — and for each cell either skips it on what
// RingKm and MaxHomeKm say of all its entries at once (or the rest of its
// layer, with Stop), or reads them from Entries, puts them through the
// query's predicate with Reach (scan's, promoted) and reports back with
// Tighten. It is a value — no closure, nothing allocated — and is good
// until the index is next mutated or queried.
type Cursor struct {
	scan
	ix      *Index
	layers  [2]layerWalk // near, far
	on      int          // the current cell's layer (a pointer to it would put the Cursor on the heap)
	ringKm  float64      // RingKm of the current cell
	cl      *cell        // the current cell
	stepped uint64       // cells Next has come to, empty ones included
}

// layerWalk is a Cursor's pass over one layer's square, a side of a ring
// at a time; spent (at >= end, ringKm +Inf), it lets the other go first.
type layerWalk struct {
	grid       *geo.Grid
	base       int     // the layer's first cell in Index.cells
	spanKm     float64 // the layer's one-cell extent
	homeKm     float64 // at least every HomeKm of the layer: see LayerHomeKm
	crow, ccol int     // the center cell
	ring, side int     // the ring and the side of it that nextSide takes next
	rings      int     // the last ring of the square
	at, end    int     // the cells left of the side being walked: at, at+step, … < end
	step       int     // 1 along a row of the grid, its width down a column
	ringKm     float64 // RingKm of the side being walked
}

// Reachable starts the Cursor of the window query that AppendReachable
// answers with ids. It refuses the query no point can satisfy,
// raises the horizon to a later deadline than any before, and makes the
// predicate dormant if the query asks below the watermark; the square
// reaches as far as the fastest point covers.
func (ix *Index) Reachable(p geo.Point, speedKmh, byTime, now, minRetire float64) Cursor {
	c := Cursor{ix: ix}
	c.layers[0].stop()
	c.layers[1].stop()
	if speedKmh <= 0 || byTime < now {
		return c
	}
	if byTime > ix.horizon {
		// Short of +Inf, which every query rejects as a free time and
		// which is the wakeAt of a cell with nothing to wake.
		ix.horizon = min(byTime, math.MaxFloat64)
	}
	qx, qy := ix.Project(p)
	c.scan = scan{
		dormant: !(minRetire >= ix.watermark),
		qx:      qx, qy: qy,
		speedKmh: speedKmh, byTime: byTime, now: now, minRetire: minRetire,
	}
	radiusKm := speedKmh * (byTime - now) / 3600
	c.layers[0].start(ix.grid, 0, ix.minSpanKm, ix.nearKm, p, radiusKm)
	if ix.far != nil {
		c.layers[1].start(ix.far, ix.grid.NumCells(), ix.farSpanKm, math.Inf(1), p, radiusKm)
		c.on = 1 // ring 0 of either is at RingKm 0: a tie
	}
	return c
}

// start points w at the center cell of its layer's square around p.
func (w *layerWalk) start(grid *geo.Grid, base int, spanKm, homeKm float64, p geo.Point, radiusKm float64) {
	center := grid.CellOf(p)
	*w = layerWalk{grid: grid, base: base, spanKm: spanKm, homeKm: homeKm,
		crow: center / grid.Cols, ccol: center % grid.Cols, rings: rings(grid, spanKm, radiusKm)}
	w.nextSide()
}

// stop spends w.
func (w *layerWalk) stop() {
	w.ring, w.rings, w.at, w.end, w.ringKm = 1, 0, 0, 0, math.Inf(1)
}

// Next moves to the next cell with entries to scan, settling on the way
// each cell a clock has run ahead of, and reports whether there is one.
// The layers are merged a side of a ring at a time — a side has one
// RingKm — the far one first on a tie: its long ways home make the
// largest margins.
func (c *Cursor) Next() bool {
	w := &c.layers[c.on]
	for {
		if w.at >= w.end {
			w.nextSide()
			c.on = 0
			if c.layers[1].ringKm <= c.layers[0].ringKm {
				c.on = 1
			}
			if w = &c.layers[c.on]; w.at >= w.end {
				return false // both are spent
			}
		}
		cl := &c.ix.cells[w.at]
		w.at += w.step
		c.stepped++
		if c.ix.behind(cl) {
			c.ix.settle(cl)
		}
		if cl.live > cl.park || c.dormant && len(cl.ents) > 0 {
			c.cl, c.ringKm = cl, w.ringKm
			return true
		}
	}
}

// nextSide points at, end and step at the next stretch of cells: ring r
// is the top and the bottom row of the square of cells r around the
// center, then what lies between them of its left and its right column,
// each clipped to the grid. Once the rings are spent it stops w.
func (w *layerWalk) nextSide() {
	for w.ring <= w.rings {
		rows, cols := w.grid.Rows, w.grid.Cols
		r, side := w.ring, w.side
		if w.side++; w.side == 4 || r == 0 { // ring 0 is one cell: its top row
			w.ring, w.side = r+1, 0
		}
		if side < 2 {
			row := w.crow - r + side*2*r
			if row < 0 || row >= rows {
				continue
			}
			w.at, w.end, w.step = w.base+row*cols+max(w.ccol-r, 0), w.base+row*cols+min(w.ccol+r, cols-1)+1, 1
		} else {
			col := w.ccol - r + (side-2)*2*r
			lo, hi := max(w.crow-r+1, 0), min(w.crow+r-1, rows-1)
			if col < 0 || col >= cols || lo > hi {
				continue
			}
			w.at, w.end, w.step = w.base+lo*cols+col, w.base+hi*cols+col+1, cols
		}
		w.ringKm = Safety * float64(max(r-1, 0)) * w.spanKm
		return
	}
	w.stop()
}

// Stop ends the walk of the current cell's layer, for a caller whose
// bound from RingKm and LayerHomeKm rules out every entry left in it.
func (c *Cursor) Stop() { c.layers[c.on].stop() }

// Stepped is the number of cells Next has come to, empty ones included.
func (c *Cursor) Stepped() uint64 { return c.stepped }

// RingKm is a lower bound on the travel distance from the query point
// to any point of the current cell, which never falls: every point r
// rings out is at least r-1 cell spans of its layer away, clamped ones
// included (see rings), discounted by Safety like every other bound.
func (c *Cursor) RingKm() float64 { return c.ringKm }

// LayerHomeKm is an upper bound on the HomeKm of every entry of the
// current cell's layer: h₀ for the near layer (see Load), +Inf for the far.
func (c *Cursor) LayerHomeKm() float64 { return c.layers[c.on].homeKm }

// MaxHomeKm is an upper bound on the HomeKm of every entry Entries
// would return for the current cell, an unknown (NaN) one counting as
// +Inf. It is kept per cell: raised to the HomeKm an entry brings when it
// joins the cell's live ones or moves within them, not lowered when one
// leaves, and made exact again by Tighten — so a caller that gives every
// HomeKm has a finite bound on every cell from the first query. A
// query below the watermark reads past the live entries, which is all
// the bound covers, and gets +Inf.
func (c *Cursor) MaxHomeKm() float64 {
	if c.dormant {
		return math.Inf(1)
	}
	return c.cl.maxHomeKm
}

// Entries returns the current cell's scanned entries: the live ones, or
// all of them on a query that asks below the watermark (see Expire). The
// caller writes none of them.
func (c *Cursor) Entries() []Entry {
	if c.dormant {
		return c.cl.ents
	}
	return c.cl.ents[c.cl.park:c.cl.live]
}

// Tighten tells the index the largest HomeKm among the entries Entries
// returned for the current cell, NaN if any of them is NaN.
func (c *Cursor) Tighten(maxHomeKm float64) {
	if !c.dormant {
		c.cl.maxHomeKm = orInf(maxHomeKm)
	}
}

// orInf reads an unknown HomeKm as the bound it allows: none.
func orInf(homeKm float64) float64 {
	if homeKm != homeKm {
		return math.Inf(1)
	}
	return homeKm
}

// scan is one query's per-entry predicate: the reachability test of
// AppendReachable. dormant makes it read every region of a cell (see
// Expire).
type scan struct {
	dormant                          bool
	qx, qy                           float64
	speedKmh, byTime, now, minRetire float64
}

// Reach is a window query's predicate, the one AppendReachable applies.
// It also returns the squared planar distance from e to the query point
// that it compares, for a caller that goes on to bound with it (0 when
// the availability window alone rejects e). A Cursor has it by
// embedding, which is what lets it inline into the caller's loop.
func (s *scan) Reach(e *Entry) (distSq float64, ok bool) {
	// Availability prunes first: on a day-long market most of the
	// fleet is off shift or locked, and these are float compares.
	if e.RetireAt < s.minRetire {
		return 0, false
	}
	depart := e.FreeAt
	if depart < s.now {
		depart = s.now
	}
	if depart > s.byTime {
		return 0, false
	}
	// Compare travel time at the fleet-max speed against the point's
	// own remaining budget, using the Safety-discounted planar
	// distance lower bound (squared, to avoid the square root).
	budgetKm := s.speedKmh * (s.byTime - depart) / 3600 / Safety
	dx, dy := e.PX-s.qx, e.PY-s.qy
	distSq = dx*dx + dy*dy
	return distSq, distSq <= budgetKm*budgetKm
}
