package roadnet

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
)

// Algorithm selects the point-to-point routing kernel of a Router whose
// graph is too large for the all-pairs table (see tableMaxPairs). Both
// kernels return bitwise-identical distances (the differential tests
// enforce it), so the choice is purely a speed/preprocessing trade.
type Algorithm int

const (
	// AlgoCH routes over a contraction hierarchy: heavier
	// preprocessing, much faster queries, and one-to-many batching
	// (DistManySnappedInto). The default.
	AlgoCH Algorithm = iota
	// AlgoALT routes with landmark-accelerated A*: light
	// preprocessing, per-pair queries only.
	AlgoALT
)

// String implements fmt.Stringer for bench/CLI labels.
func (a Algorithm) String() string {
	if a == AlgoALT {
		return "alt"
	}
	return "ch"
}

// Router adapts a road graph to the framework's geo.DistanceFunc
// contract: Dist(a, b) snaps both points to their nearest intersections,
// takes the shortest route between them, and adds the straight-line
// access legs. Snapping is the expensive half, so every distance also
// comes in a snapped form (Snap, DistSnapped and the two batch kernels):
// a caller whose points outlive one query snaps each once and keeps the
// geo.Snap. The point forms are wrappers that snap and call the snapped
// ones, so both evaluate one float expression.
//
// Node-to-node distances come from one of two tiers, chosen by the size
// of the graph and by nothing else:
//
//   - At most tableMaxPairs node pairs (1 024 nodes — every city-sized
//     graph in the repository): a flat all-pairs table filled at
//     construction by one Dijkstra sweep per node, the sweeps shared out
//     among GOMAXPROCS workers that are all joined before the constructor
//     returns (fillTable). A lookup is an indexed load. Such a router
//     builds no hierarchy and no landmarks whatever the Algorithm says,
//     and has no cache: SetCacheBound does nothing and CacheStats /
//     CacheSize read zero.
//   - Above that: the configured kernel (the contraction hierarchy's
//     bidirectional search by default, with one shared half-search per
//     batch; landmark-accelerated A* for AlgoALT) behind a bounded FIFO
//     route cache, so the O(M²) task-map construction and 50k-driver
//     dispatch days pay each route once without growing memory without
//     bound.
//
// Both tiers return the float Graph.ShortestPath returns, bit for bit.
//
// Dist never returns less than the straight-line distance between its
// arguments, so crow-fly ring pruning (internal/spatial) stays
// admissible under the network metric.
//
// A snap inside the box passed to NewRouter reads its snap-grid cell's
// short list (see nearest). Only a point outside searches the grid in
// rings, whose termination bound assumes the box covers the graph's
// nodes, which the generators in this package guarantee.
//
// Router is safe for concurrent use. A table router is immutable after
// construction but for its atomic snap counter, takes no lock, and hands
// its table out read-only (Table) for callers that bound before they
// measure. A kernel router serialises its kernel tier on one mutex:
// every public entry that can reach the kernel (DistSnapped and Dist,
// each batch, Circuity) takes it once, and the cache lookup, the
// kernel's query on a miss and the insert share that one critical
// section, so a node pair is computed once however many goroutines ask
// for it, and concurrent callers queue rather than route side by side.
// Every production caller reaches a router from one goroutine — the
// dispatch service under its own mutex, the engine, which spawns none,
// one router per federated market — so there the lock is never
// contended.
type Router struct {
	g *Graph

	// table[u*n+v] is the distance u→v, for all n² pairs; nil on a
	// graph over tableMaxPairs, which routes with lm or ch instead.
	table []float64
	n     int
	lm    *Landmarks // ALT kernel state (nil unless AlgoALT, no table)
	ch    *Hierarchy // CH kernel state (nil unless AlgoCH, no table)

	// The snap index, two CSR pairs over the grid's cells: cell c's
	// bucket nodes[nodeAt[c]:nodeAt[c+1]] (its nodes, ascending) and its
	// list lists[listAt[c]:listAt[c+1]] (see nearest).
	grid                         *geo.Grid
	nodes, nodeAt, lists, listAt []int32
	spanKm                       float64 // conservative min cell span, for ring termination
	rowScale, colScale           float64 // cells per degree, for list

	// The latitude band of the box and the nodes, and the least and the
	// greatest cosine of latitude inside it: what the planar bounds of
	// nearest and distSnapped stand on (see geo.EquirectangularSqAt).
	latLo, latHi float64
	cosLo, cosHi float64

	// The kernel tier's mutable state, all under mu: the route cache
	// (routes, with fifo its insertion order, evicted first in first out
	// at maxEntries), its counters, and the one search scratch of the
	// hierarchy (nil unless ch).
	mu                      sync.Mutex
	maxEntries              int
	routes                  map[[2]int32]float64
	fifo                    [][2]int32
	sc                      *chScratch
	hits, misses, evictions uint64

	snaps atomic.Uint64
}

const (
	// DefaultCacheEntries bounds the route cache. A city graph with n
	// intersections has at most n² routable pairs (~230k for the
	// default 20×24 grid), so the default never evicts there while
	// still capping memory (~48 MiB of entries) on huge graphs.
	DefaultCacheEntries = 1 << 20

	// tableMaxPairs is the largest graph, in node pairs, that gets the
	// all-pairs table: exactly the graphs whose every route the default
	// cache could have held anyway (n ≤ 1 024), at a sixth of the bytes
	// — 8 per pair, 8 MiB at the bound, 1.8 MB on the default grid.
	tableMaxPairs = DefaultCacheEntries

	// sqSlackRel and sqSlackAbs are the margins by which a squared
	// planar bound (geo.EquirectangularSqAt) must clear a squared exact
	// distance before nearest or distSnapped acts on it. The relative one
	// swallows float rounding on both sides, seven orders of magnitude
	// over; the absolute one — nothing beside any distance a street graph
	// holds — swallows a square that underflowed next to the origin.
	sqSlackRel = 1e-9
	sqSlackAbs = 1e-280

	// defaultLandmarks is the number of ALT landmarks precomputed by
	// NewRouter. Eight well-spread landmarks are the classic
	// sweet spot: ~16 Dijkstra sweeps of preprocessing for a heuristic
	// that already prices in circuity.
	defaultLandmarks = 8
)

// NewRouter builds a router over the graph, indexing nodes into an s x s
// snap grid covering box; s < 1 sizes the grid from the node count (see
// snapGridDim). Above the table's size bound it routes over a
// contraction hierarchy behind a cache of up to DefaultCacheEntries
// routes; tune with SetCacheBound before use.
func NewRouter(g *Graph, box geo.BoundingBox, s int) *Router {
	return NewRouterAlgo(g, box, s, AlgoCH)
}

// NewRouterAlgo is NewRouter with an explicit routing kernel for graphs
// over the table's size bound: AlgoCH preprocesses a contraction
// hierarchy, AlgoALT precomputes ALT landmarks. Both yield
// bitwise-identical distances, and on a smaller graph algo selects
// nothing.
func NewRouterAlgo(g *Graph, box geo.BoundingBox, s int, algo Algorithm) *Router {
	return newRouter(g, box, s, algo, tableMaxPairs)
}

// newRouter is NewRouterAlgo with the table's size bound as a parameter:
// the package's tests pass 0 to hold the kernels and the cache to their
// contracts on graphs small enough to sweep.
func newRouter(g *Graph, box geo.BoundingBox, s int, algo Algorithm, tableMax int) *Router {
	n := g.NumNodes()
	if s < 1 {
		s = snapGridDim(n)
	}
	r := &Router{
		g:          g,
		n:          n,
		grid:       geo.NewGrid(box, s, s),
		latLo:      box.MinLat,
		latHi:      box.MaxLat,
		maxEntries: DefaultCacheEntries,
	}
	h, w := r.grid.CellSpanKm()
	r.spanKm = math.Min(h, w)
	// The buckets: the ids stably sorted by cell, and the counts summed.
	cells := make([]int, n)
	r.nodes, r.nodeAt = make([]int32, n), make([]int32, r.grid.NumCells()+1)
	for id, p := range g.pts {
		r.nodes[id], cells[id] = int32(id), r.grid.CellOf(p)
		r.nodeAt[cells[id]+1]++
		r.latLo, r.latHi = math.Min(r.latLo, p.Lat), math.Max(r.latHi, p.Lat)
	}
	slices.SortStableFunc(r.nodes, func(a, b int32) int { return cells[a] - cells[b] })
	for c := range r.grid.NumCells() {
		r.nodeAt[c+1] += r.nodeAt[c]
	}
	// The cosine is unimodal on [-90°, 90°]: over a band it is least at
	// an end, and greatest at the equator if the band holds it, else at
	// the other end.
	south, north := geo.CosLat(r.latLo), geo.CosLat(r.latHi)
	r.cosLo, r.cosHi = math.Min(south, north), math.Max(south, north)
	if r.latLo <= 0 && r.latHi >= 0 {
		r.cosHi = 1
	}
	r.rowScale, r.colScale = float64(s)/(box.MaxLat-box.MinLat), float64(s)/(box.MaxLon-box.MinLon)
	switch {
	case n*n <= tableMax:
		r.table = fillTable(g.adj, n, r.buildLists)
	case algo == AlgoALT:
		r.buildLists()
		r.lm = NewLandmarks(g, g.SelectLandmarks(defaultLandmarks))
	default:
		r.buildLists()
		r.ch = BuildHierarchy(g)
		r.sc = newCHScratch(r.ch)
	}
	return r
}

// fillTable returns the all-pairs table of the n nodes of adj: row u is
// the sweep from u. The rows are shared out among min(GOMAXPROCS, n)
// workers, the caller one of them, so at GOMAXPROCS 1 nothing is
// spawned: each worker has its own queue and takes the next row nobody
// has taken until none is left, and every worker is joined before the
// table is returned. A row is one sweep over the read-only adjacency,
// written by the one worker that took it, so the table is the same bit
// for bit at any worker count and in any order the rows are taken. The
// caller runs first, the snap lists' build, before it takes a row.
func fillTable(adj [][]halfEdge, n int, first func()) []float64 {
	table := make([]float64, n*n)
	var next atomic.Int64
	work := func() {
		s := newSweeper(adj)
		for u := int(next.Add(1) - 1); u < n; u = int(next.Add(1) - 1) {
			s.sweep(int32(u), table[u*n:][:n])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	first()
	work()
	wg.Wait()
	return table
}

// Table returns the all-pairs table, dist[u*n+v] the distance u→v, and
// its dimension n; nil and 0 on a router that routes with a kernel, or
// has no node. The slice is the router's own and must not be written. It
// is what DistSnapped adds the two access legs to, so a caller may bound
// a distance from it: for snaps a and b of this router, DistSnapped(a,
// b) >= b.AccessKm + dist[a.Node*n+b.Node] in floating point, rounding
// included (the access legs are non-negative, and dist[u*n+u] is 0).
func (r *Router) Table() (dist []float64, n int) {
	if len(r.table) == 0 {
		return nil, 0
	}
	return r.table, r.n
}

// snapGridDim sizes the snap grid for n nodes at a quarter of a node per
// cell: a snap inside the box reads its cell's list (only one outside
// searches rings), shorter the finer the grid — 11.6 nodes at 1.5 nodes
// a cell, 3.1 here, 2.1 at 0.1, where the list build takes twice as long.
func snapGridDim(n int) int {
	dim := int(math.Ceil(math.Sqrt(float64(n) / 0.25)))
	if dim < 1 {
		dim = 1
	}
	return dim
}

// SetCacheBound caps the route cache at maxEntries memoized node pairs
// (at least one). Call before routing; it does not shrink an existing
// cache. A table router has no cache and ignores the call.
func (r *Router) SetCacheBound(maxEntries int) {
	r.mu.Lock()
	r.maxEntries = max(maxEntries, 1)
	r.mu.Unlock()
}

// NearestNode returns the graph node closest to p (-1 on an empty
// graph; the lowest id among nodes exactly tied, so the answer does not
// depend on the snap grid's dimension). A point inside the box reads its
// cell's list. A point outside searches the snap grid in expanding
// Chebyshev rings around its clamped cell and stops only when the next
// ring cannot possibly hold a closer node: any point in a cell r rings
// away is at least (r-1)·min(cell height, cell width) from p, the same
// conservative bound internal/spatial uses, so a populated-but-farther
// Moore neighborhood never masks the true nearest node in a later ring.
func (r *Router) NearestNode(p geo.Point) int {
	id, _, _ := r.nearest(p)
	return int(id)
}

// inBand reports whether a latitude lies in the router's band, where
// cosLo and cosHi bracket the cosine.
func (r *Router) inBand(lat float64) bool { return lat >= r.latLo && lat <= r.latHi }

// nearest is NearestNode, returning the winner's distance too, and how
// many nodes it took the exact distance to: only the nodes that can win.
// Every node lies in the band, so the mean latitude of p and a node lies
// in it too — or between it and p — and cosLo is no greater than the
// cosine the exact distance will use. EquirectangularSqAt under cosLo is
// therefore a lower bound, and a node whose bound already exceeds the
// best distance so far is passed over. The test is strict, so a node
// exactly tied with the incumbent is still measured and the lowest id
// still wins. A point inside the box offers its cell's list alone (two
// multiplications find the cell): the nodes whose lower bound to the cell
// (cosLo, its nearest point) is at most the least upper bound a node has
// over it (cosHi, its farthest corner), as the node nearest a point of
// the cell is no farther from it than any other. Only a point outside
// the box takes the ring search.
func (r *Router) nearest(p geo.Point) (id int32, km float64, measured int) {
	id, km, sq := int32(-1), math.Inf(1), math.Inf(1) // sq: km², slack added
	scan := func(ids []int32, cosLo float64) {
		for _, u := range ids {
			q := r.g.pts[u]
			if geo.EquirectangularSqAt(p, q, cosLo)*(1-sqSlackRel) > sq {
				continue
			}
			measured++
			if d := geo.Equirectangular(p, q); d < km || d == km && u < id {
				id, km, sq = u, d, d*d+sqSlackAbs
			}
		}
	}
	rows, cols := r.grid.Rows, r.grid.Cols
	if box := &r.grid.Box; box.Contains(p) {
		c := min(int((p.Lat-box.MinLat)*r.rowScale), rows-1)*cols + min(int((p.Lon-box.MinLon)*r.colScale), cols-1)
		scan(r.lists[r.listAt[c]:r.listAt[c+1]], r.cosLo)
		return id, km, measured
	}
	cell := r.grid.CellOf(p)
	cosLo := r.cosLo
	if !r.inBand(p.Lat) {
		cosLo = math.Min(cosLo, geo.CosLat(p.Lat))
	}
	for ring := 0; ring <= max(rows, cols); ring++ {
		if id >= 0 && float64(ring-1)*r.spanKm > km {
			break
		}
		r.ring(cell/cols, cell%cols, ring, func(ids []int32) { scan(ids, cosLo) })
	}
	return id, km, measured
}

// ring hands visit the buckets of the in-bounds cells at exactly
// Chebyshev distance k from (row, col), a row's run of cells at a time:
// the ring's top and bottom rows, the two end cells of the rows between.
func (r *Router) ring(row, col, k int, visit func(ids []int32)) {
	cols := r.grid.Cols
	run := func(rr, c0, c1 int) { visit(r.nodes[r.nodeAt[rr*cols+c0]:r.nodeAt[rr*cols+c1+1]]) }
	for rr := max(row-k, 0); rr <= min(row+k, r.grid.Rows-1); rr++ {
		switch {
		case rr == row-k || rr == row+k:
			run(rr, max(col-k, 0), min(col+k, cols-1))
		default:
			if col-k >= 0 {
				run(rr, col-k, col-k)
			}
			if col+k < cols {
				run(rr, col+k, col+k)
			}
		}
	}
}

// buildLists fills every cell's list, nearest the cell's centre first,
// from its rings outward, and stops at a ring no node of which can pass:
// ring k ≥ 2 lies k−1 cell steps away, less a hundredth for the pads and
// CellOf's rounding. The cell is padded by a millionth of a side and
// 1e-12°, far more than the rounding of nearest's cell and the bounds.
func (r *Router) buildLists() {
	box, rows, cols := r.grid.Box, r.grid.Rows, r.grid.Cols
	dLat, dLon := (box.MaxLat-box.MinLat)/float64(rows), (box.MaxLon-box.MinLon)/float64(cols)
	stepKm := math.Sqrt(min(geo.EquirectangularSqAt(geo.Point{}, geo.Point{Lat: dLat}, r.cosLo),
		geo.EquirectangularSqAt(geo.Point{}, geo.Point{Lon: dLon}, r.cosLo)))
	type candidate struct {
		id      int32
		lb, key float64 // the lower bound over the cell, and to its centre
	}
	var found []candidate
	r.listAt = make([]int32, 1, rows*cols+1)
	for c := range rows * cols {
		row, col := c/cols, c%cols
		sw := geo.Point{Lat: box.MinLat + float64(row)*dLat, Lon: box.MinLon + float64(col)*dLon}
		lo := geo.Point{Lat: sw.Lat - dLat*1e-6 - 1e-12, Lon: sw.Lon - dLon*1e-6 - 1e-12}
		hi := geo.Point{Lat: sw.Lat + dLat*(1+1e-6) + 1e-12, Lon: sw.Lon + dLon*(1+1e-6) + 1e-12}
		mid := geo.Point{Lat: sw.Lat + dLat/2, Lon: sw.Lon + dLon/2}
		m := math.Inf(1) // the least upper bound so far
		found = found[:0]
		offer := func(ids []int32) {
			for _, id := range ids {
				q := r.g.pts[id]
				near := geo.Point{Lat: min(max(q.Lat, lo.Lat), hi.Lat), Lon: min(max(q.Lon, lo.Lon), hi.Lon)}
				// The farthest corner's differences: the greatest corner bound.
				far := geo.Point{Lat: max(math.Abs(q.Lat-lo.Lat), math.Abs(q.Lat-hi.Lat)), Lon: max(math.Abs(q.Lon-lo.Lon), math.Abs(q.Lon-hi.Lon))}
				m = min(m, geo.EquirectangularSqAt(geo.Point{}, far, r.cosHi)*(1+sqSlackRel)+sqSlackAbs)
				found = append(found, candidate{id, geo.EquirectangularSqAt(near, q, r.cosLo) * (1 - sqSlackRel), geo.EquirectangularSqAt(mid, q, r.cosLo)})
			}
		}
		for k := 0; k <= max(rows, cols) && r.n > 0; k++ {
			if gap := (float64(k) - 1.01) * stepKm; gap > 0 && gap*gap > m {
				break
			}
			r.ring(row, col, k, offer)
		}
		found = slices.DeleteFunc(found, func(f candidate) bool { return f.lb > m })
		slices.SortFunc(found, func(a, b candidate) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id)) })
		for _, f := range found {
			r.lists = append(r.lists, f.id)
		}
		r.listAt = append(r.listAt, int32(len(r.lists)))
	}
}

// Snap resolves p onto the graph: its nearest node and the straight-line
// access leg to it. The result stays valid for the router's lifetime.
func (r *Router) Snap(p geo.Point) geo.Snap {
	r.snaps.Add(1)
	u, km, _ := r.nearest(p)
	if u < 0 {
		return geo.Snap{P: p, Node: -1}
	}
	return geo.Snap{P: p, Node: u, AccessKm: km}
}

// Dist computes the network distance between a and b in kilometers:
// straight-line access to the nearest intersections plus the shortest
// route between them, floored at the straight-line distance. It
// implements geo.DistanceFunc, as DistSnapped over two fresh snaps.
func (r *Router) Dist(a, b geo.Point) float64 {
	return r.DistSnapped(r.Snap(a), r.Snap(b))
}

// DistSnapped is Dist over endpoints already resolved by this router's
// Snap: bitwise equal to Dist(a.P, b.P).
func (r *Router) DistSnapped(a, b geo.Snap) float64 {
	if r.table == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	return r.distSnapped(a, b, nil)
}

// distSnapped is the one distance expression every public form
// evaluates: the two access legs, plus the route between the nodes (see
// nodeDistVia for compute), floored at the straight-line distance so the
// result is a true metric over-approximation of crow-fly (the
// equirectangular projection's triangle inequality holds only to ~1e-4
// at city scale, and pruning correctness must not depend on that). The
// floor rarely binds — a route is longer than the chord it spans — so
// between two points of the band, whose mean latitude has a cosine of at
// most cosHi, the exact straight-line distance is taken only when the
// upper bound EquirectangularSqAt gives under cosHi does not already sit
// at or below the route.
func (r *Router) distSnapped(a, b geo.Snap, compute func() float64) float64 {
	if a.Node < 0 {
		return geo.Equirectangular(a.P, b.P) // empty graph: degrade to crow-fly
	}
	d := a.AccessKm + b.AccessKm
	if a.Node != b.Node {
		d += r.nodeDistVia(a.Node, b.Node, compute)
	}
	if r.inBand(a.P.Lat) && r.inBand(b.P.Lat) &&
		geo.EquirectangularSqAt(a.P, b.P, r.cosHi)*(1+sqSlackRel)+sqSlackAbs <= d*d {
		return d
	}
	if crow := geo.Equirectangular(a.P, b.P); crow > d {
		d = crow
	}
	return d
}

// nodeDist returns the network distance between two intersections: a
// table load, or else the route cache's entry, the kernel computing and
// storing it on a miss. Above the table the caller holds mu.
func (r *Router) nodeDist(u, v int32) float64 {
	return r.nodeDistVia(u, v, nil)
}

// routeNodes is the router's default point-to-point kernel.
func (r *Router) routeNodes(u, v int32) float64 {
	if r.ch != nil {
		return r.ch.queryPTP(r.sc, u, v)
	}
	d, _ := r.g.AStarALT(r.lm, int(u), int(v))
	return d
}

// nodeDistVia is nodeDist with a pluggable kernel: when compute is
// non-nil it replaces routeNodes on a miss. The batches pass a closure
// that probes a shared half-search (preparing it on the batch's first
// miss), so batch lookups keep the exact cache semantics — and hit/miss
// accounting — of looped per-pair lookups. The table load comes first
// and takes no lock; above the table the caller holds mu, so the
// lookup, the kernel and the insert are one critical section and a pair
// is computed once. The cache then holds at most maxEntries pairs,
// evicting the oldest to admit a new one.
func (r *Router) nodeDistVia(u, v int32, compute func() float64) float64 {
	if r.table != nil {
		// Re-slicing to the row first hands a node of some other router's
		// graph to Go's bounds check instead of a neighbouring row.
		return r.table[int(u)*r.n:][:r.n][v]
	}
	key := [2]int32{u, v}
	if d, ok := r.routes[key]; ok {
		r.hits++
		return d
	}
	r.misses++
	var d float64
	if compute != nil {
		d = compute()
	} else {
		d = r.routeNodes(u, v)
	}
	if r.routes == nil {
		r.routes = make(map[[2]int32]float64)
	}
	if len(r.routes) >= r.maxEntries {
		delete(r.routes, r.fifo[0])
		r.fifo = r.fifo[1:]
		r.evictions++
	}
	r.routes[key] = d
	r.fifo = append(r.fifo, key)
	return d
}

// CacheSize returns the number of memoized node pairs (for tests and
// capacity planning); zero on a table router, which has no cache.
func (r *Router) CacheSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.routes)
}

// ResetCacheStats zeroes the hit/miss/eviction counters. The memoized
// routes themselves are kept — benches call this between legs (and
// around Circuity sampling) so each leg reports its own rates.
func (r *Router) ResetCacheStats() {
	r.mu.Lock()
	r.hits, r.misses, r.evictions = 0, 0, 0
	r.mu.Unlock()
}

// Snaps returns how many points the router has resolved to a node over
// its lifetime: Snap calls, two per Dist, one per point of a point-form
// batch. Tests pin the engine's snap-once contract on it.
func (r *Router) Snaps() uint64 { return r.snaps.Load() }

// CacheStats returns the route cache's lifetime hit, miss, and eviction
// counters. Hits are lookups served from the cache; misses count route
// computations, one per pair however many goroutines asked for it;
// evictions count entries dropped to honor the cache bound. All three
// stay zero on a table router: a table load is neither.
func (r *Router) CacheStats() (hits, misses, evictions uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses, r.evictions
}

// DistManySnappedInto writes the network distances from origin to every
// target into out, which must have at least len(targets) elements:
// out[i] is bitwise equal to DistSnapped(origin, targets[i]). Over a
// hierarchy the pairs that miss the route cache share one exhaustive
// forward search (origin's side, run when the first of them misses) and
// pay only a small backward probe each, so a batch beats
// looped DistSnapped once a handful of misses share the origin; on a
// table router, and under AlgoALT, it is the loop. A kernel router
// holds its mutex for the whole batch, since the shared search lives in
// its one scratch. Cache semantics are identical to looped DistSnapped:
// each pair is looked up, counted, and stored exactly as a single call
// would.
func (r *Router) DistManySnappedInto(origin geo.Snap, targets []geo.Snap, out []float64) {
	if len(out) < len(targets) {
		panic("roadnet: DistManySnappedInto out buffer too small")
	}
	if r.table == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	// One miss closure for the batch, reading the pair's node from a
	// variable declared outside the loop, so no loop variable is captured;
	// nil leaves each miss to routeNodes.
	var to int32
	var miss func() float64
	if r.ch != nil {
		exhausted := false
		miss = func() float64 {
			if !exhausted {
				r.sc.f.exhaust(origin.Node)
				exhausted = true
			}
			return r.ch.unpack(r.sc, r.sc.b.probe(&r.sc.f, to))
		}
	}
	for i, t := range targets {
		to = t.Node
		out[i] = r.distSnapped(origin, t, miss)
	}
}

// DistManyToSnappedInto is DistManySnappedInto's many-to-one mirror:
// out[i] is bitwise equal to DistSnapped(sources[i], dest). (The two
// shapes are distinct because float addition is not associative — a
// distance is directional down to the last bit, so a shared search must
// sit on the side the pairs share.)
func (r *Router) DistManyToSnappedInto(sources []geo.Snap, dest geo.Snap, out []float64) {
	if len(out) < len(sources) {
		panic("roadnet: DistManyToSnappedInto out buffer too small")
	}
	if r.table == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	var from int32
	var miss func() float64
	if r.ch != nil {
		exhausted := false
		miss = func() float64 {
			if !exhausted {
				r.sc.b.exhaust(dest.Node)
				exhausted = true
			}
			return r.ch.unpack(r.sc, r.sc.f.probe(&r.sc.b, from))
		}
	}
	for i, a := range sources {
		from = a.Node
		out[i] = r.distSnapped(a, dest, miss)
	}
}

// DistManyInto is DistManySnappedInto over fresh snaps of its points:
// out[i] is bitwise equal to Dist(origin, targets[i]).
func (r *Router) DistManyInto(origin geo.Point, targets []geo.Point, out []float64) {
	r.DistManySnappedInto(r.Snap(origin), r.snapAll(targets), out)
}

// DistManyToInto is DistManyToSnappedInto over fresh snaps of its
// points: out[i] is bitwise equal to Dist(sources[i], dest).
func (r *Router) DistManyToInto(sources []geo.Point, dest geo.Point, out []float64) {
	r.DistManyToSnappedInto(r.snapAll(sources), r.Snap(dest), out)
}

// snapAll snaps a point-form batch's unshared side.
func (r *Router) snapAll(pts []geo.Point) []geo.Snap {
	snaps := make([]geo.Snap, len(pts))
	for i, p := range pts {
		snaps[i] = r.Snap(p)
	}
	return snaps
}

// Circuity estimates the network's mean circuity (network distance over
// straight-line distance) by sampling n deterministic node pairs. Used
// by tests and benches to assert realism.
func (r *Router) Circuity(samples int) float64 {
	n := r.g.NumNodes()
	if n < 2 || samples < 1 {
		return 1
	}
	if r.table == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	var sum float64
	var count int
	for i := 0; i < samples; i++ {
		u := (i * 7919) % n
		v := (i*104729 + 13) % n
		if u == v {
			continue
		}
		crow := geo.Equirectangular(r.g.Point(u), r.g.Point(v))
		if crow < 0.2 {
			continue
		}
		net := r.nodeDist(int32(u), int32(v))
		sum += net / crow
		count++
	}
	if count == 0 {
		return 1
	}
	return sum / float64(count)
}
