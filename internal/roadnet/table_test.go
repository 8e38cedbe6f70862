package roadnet

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
)

// pqItem / pq are the container/heap queue the package's searches ran on
// before chHeap, kept for refSweep alone.
type pqItem struct {
	node int32
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refSweep is Graph.DistancesFrom as it read before the table existed —
// container/heap over boxed items, a settled flag per node — kept as the
// exhaustive oracle for the sweep every table row is built by: equal rows
// mean a journal written over the old body replays over the new one.
func refSweep(g *Graph, src int) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := pq{{node: int32(src)}}
	for q.Len() > 0 {
		u := heap.Pop(&q).(pqItem).node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			if nd := dist[u] + e.km; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(&q, pqItem{node: e.to, dist: nd})
			}
		}
	}
	return dist
}

// TestTableBitwiseEqualsKernels holds the all-pairs table to every other
// way the package has of measuring a node pair, bit for bit: on the
// default grid at three seeds and on a radial city, all n² entries equal
// the pre-table sweep, and Graph.ShortestPath, the hierarchy's query and
// AStarALT agree on every pair of the radial city and on a lattice of
// the grid's that touches every row and every column (a per-pair search
// over all 230 400 would take seconds a graph, and under -race a
// minute). It is this identity that lets a table router replay a journal
// a CH or ALT router wrote.
func TestTableBitwiseEqualsKernels(t *testing.T) {
	check := func(name string, g *Graph, box geo.BoundingBox, stride int) {
		t.Helper()
		r := NewRouter(g, box, 0)
		if r.table == nil || r.ch != nil || r.lm != nil {
			t.Fatalf("%s: %d nodes did not get a table and nothing else", name, g.NumNodes())
		}
		query := querier(BuildHierarchy(g))
		lm := NewLandmarks(g, g.SelectLandmarks(defaultLandmarks))
		n := g.NumNodes()
		for u := 0; u < n; u++ {
			row, ref := r.table[u*n:][:n], refSweep(g, u)
			for v := 0; v < n; v++ {
				if row[v] != ref[v] {
					t.Fatalf("%s: table(%d,%d) = %v, the pre-table sweep = %v", name, u, v, row[v], ref[v])
				}
				if got := r.nodeDist(int32(u), int32(v)); got != row[v] {
					t.Fatalf("%s: nodeDist(%d,%d) = %v, table entry %v", name, u, v, got, row[v])
				}
			}
			for v := u % stride; v < n; v += stride {
				if d, _ := g.ShortestPath(u, v); row[v] != d {
					t.Fatalf("%s: table(%d,%d) = %v, ShortestPath = %v", name, u, v, row[v], d)
				}
				if d := query(u, v); row[v] != d {
					t.Fatalf("%s: table(%d,%d) = %v, the hierarchy's query = %v", name, u, v, row[v], d)
				}
				if d, _ := g.AStarALT(lm, u, v); row[v] != d {
					t.Fatalf("%s: table(%d,%d) = %v, AStarALT = %v", name, u, v, row[v], d)
				}
			}
		}
	}
	stride := 48
	if testing.Short() {
		stride = 240
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultGridConfig()
		cfg.Seed = seed
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check("grid", g, cfg.Box, stride)
	}
	g, err := GenerateRadial(geo.PortoBox.Center(), 8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	check("radial", g, geo.PortoBox, 1)
}

// oneWayGraph is two nodes of the Porto box joined by one 25 km one-way
// edge a→b: b never reaches a.
func oneWayGraph() (g *Graph, a, b int) {
	g = &Graph{}
	a = g.AddNode(geo.PortoBox.Lerp(0.2, 0.2))
	b = g.AddNode(geo.PortoBox.Lerp(0.8, 0.8))
	g.AddEdge(a, b, 25)
	return g, a, b
}

// goroutinesBackTo returns the goroutine count once it is back at or
// below want, or what it is after a second of waiting. A worker's
// WaitGroup.Done runs a few instructions before its goroutine is gone, so
// the count may lag a join by that much; a worker left running never
// comes back.
func goroutinesBackTo(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	return n
}

// TestTableBuildAtAnyProcs: the table's rows are swept by as many
// workers as GOMAXPROCS allows, and the table is the same at any count —
// every entry, compared by its bits, equal to the rows one sweep after
// another fills — on the default grid, on the 32×32 grid at the table's
// bound, on a radial city and on a graph with a row of +Inf; and no
// worker outlives NewRouter.
func TestTableBuildAtAnyProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	grid := func(rows, cols int) (*Graph, geo.BoundingBox) {
		cfg := DefaultGridConfig()
		cfg.Rows, cfg.Cols = rows, cols
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g, cfg.Box
	}
	radial, err := GenerateRadial(geo.PortoBox.Center(), 8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	oneWay, a, b := oneWayGraph()
	type graph struct {
		name string
		g    *Graph
		box  geo.BoundingBox
	}
	def, defBox := grid(20, 24)
	bound, boundBox := grid(32, 32)
	for _, c := range []graph{
		{"20x24", def, defBox},
		{"32x32", bound, boundBox},
		{"radial", radial, geo.PortoBox},
		{"one-way", oneWay, geo.PortoBox},
	} {
		n := c.g.NumNodes()
		want := make([]float64, n*n)
		var q chHeap
		for u := 0; u < n; u++ {
			sweep(c.g.adj, int32(u), want[u*n:][:n], &q)
		}
		if c.g == oneWay && !math.IsInf(want[b*n+a], 1) {
			t.Fatalf("one-way: b→a = %v, want +Inf", want[b*n+a])
		}
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			before := runtime.NumGoroutine()
			r := NewRouter(c.g, c.box, 0)
			// The entries first: a worker still sweeping when NewRouter
			// returns is a race (-race names it) and may leave a row short.
			if len(r.table) != n*n {
				t.Fatalf("%s at GOMAXPROCS %d: a table of %d entries over %d nodes", c.name, procs, len(r.table), n)
			}
			for i, d := range r.table {
				if math.Float64bits(d) != math.Float64bits(want[i]) {
					t.Fatalf("%s at GOMAXPROCS %d: table(%d,%d) = %v, the sequential sweep %v", c.name, procs, i/n, i%n, d, want[i])
				}
			}
			if after := goroutinesBackTo(before); after > before {
				t.Errorf("%s at GOMAXPROCS %d: %d goroutines after NewRouter, %d before", c.name, procs, after, before)
			}
		}
	}
}

// TestTableUnreachableIsInf: a pair no path joins reads +Inf from the
// table and from every public form over it, as it does from the kernels
// — the floor's bound must not turn an infinite route into a finite one.
func TestTableUnreachableIsInf(t *testing.T) {
	g, a, b := oneWayGraph()
	pa, pb := geo.PortoBox.Lerp(0.21, 0.2), geo.PortoBox.Lerp(0.8, 0.79)

	for name, r := range map[string]*Router{
		"table": NewRouter(g, geo.PortoBox, 0),
		"ch":    kernelRouter(g, geo.PortoBox, 0, AlgoCH),
		"alt":   kernelRouter(g, geo.PortoBox, 0, AlgoALT),
	} {
		if d := r.Dist(pa, pb); math.IsInf(d, 0) || d < 25 {
			t.Fatalf("%s: Dist along the one-way edge = %v, want its 25 km and the access legs", name, d)
		}
		sa, sb := r.Snap(pa), r.Snap(pb)
		out := []float64{0}
		forms := map[string]float64{
			"nodeDist":    r.nodeDist(int32(b), int32(a)),
			"Dist":        r.Dist(pb, pa),
			"DistSnapped": r.DistSnapped(sb, sa),
		}
		r.DistManySnappedInto(sb, []geo.Snap{sa}, out)
		forms["DistManySnappedInto"] = out[0]
		r.DistManyToSnappedInto([]geo.Snap{sb}, sa, out)
		forms["DistManyToSnappedInto"] = out[0]
		r.DistManyInto(pb, []geo.Point{pa}, out)
		forms["DistManyInto"] = out[0]
		r.DistManyToInto([]geo.Point{pb}, pa, out)
		forms["DistManyToInto"] = out[0]
		for form, d := range forms {
			if !math.IsInf(d, 1) {
				t.Errorf("%s: %s against the one-way edge = %v, want +Inf", name, form, d)
			}
		}
	}
}

// TestTableForeignSnapPanics: a Snap means something only to the router
// that made it, and a table router that is handed one naming a node its
// graph does not have must stop on Go's bounds check — as origin or as
// target, one past the last node or far past it — never read the next
// row of the table.
func TestTableForeignSnapPanics(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 3, 3
	small, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(small, cfg.Box, 0)
	if r.table == nil {
		t.Fatal("a 9-node graph did not get a table")
	}
	own := r.Snap(cfg.Box.Lerp(0.1, 0.1))
	for _, node := range []int32{9, 10, 479} {
		foreign := geo.Snap{P: cfg.Box.Lerp(0.9, 0.9), Node: node, AccessKm: 0.1}
		for name, call := range map[string]func(){
			"as target": func() { r.DistSnapped(own, foreign) },
			"as origin": func() { r.DistSnapped(foreign, own) },
			"in a batch": func() {
				r.DistManySnappedInto(own, []geo.Snap{own, foreign}, make([]float64, 2))
			},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("node %d of another graph %s: no panic", node, name)
					}
				}()
				call()
			}()
		}
	}
}

// TestTableRouterConcurrentReads shares one table router among 64
// goroutines, each taking every distance form over its own slice of a
// point set: every result must equal the one a single goroutine got
// before the others started. Run with -race — nothing but the snap
// counter may be written after construction.
func TestTableRouterConcurrentReads(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 0)
	pts := routerTestPoints(cfg.Box, 48, 6)
	hub := cfg.Box.Lerp(0.45, 0.55)

	// forms returns every public form's answer for hub and pts[lo:hi],
	// six values a point.
	forms := func(lo, hi int) []float64 {
		sub := pts[lo:hi]
		hubSnap, snaps := r.Snap(hub), r.snapAll(sub)
		out := make([]float64, 0, 6*len(sub))
		buf := make([]float64, len(sub))
		for i, p := range sub {
			out = append(out, r.Dist(hub, p), r.DistSnapped(snaps[i], hubSnap))
		}
		r.DistManySnappedInto(hubSnap, snaps, buf)
		out = append(out, buf...)
		r.DistManyToSnappedInto(snaps, hubSnap, buf)
		out = append(out, buf...)
		r.DistManyInto(hub, sub, buf)
		out = append(out, buf...)
		r.DistManyToInto(sub, hub, buf)
		return append(out, buf...)
	}

	const workers = 64
	span := func(w int) (int, int) { lo := w % (len(pts) - 8); return lo, lo + 8 }
	want := make([][]float64, workers)
	for w := range want {
		want[w] = forms(span(w))
	}
	got := make([][]float64, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			start.Wait()
			got[w] = forms(span(w))
		}(w)
	}
	start.Done()
	done.Wait()
	for w := range want {
		for i := range want[w] {
			if got[w][i] != want[w][i] {
				t.Fatalf("goroutine %d, value %d: %v beside 63 others, %v alone", w, i, got[w][i], want[w][i])
			}
		}
	}
	if r.CacheSize() != 0 {
		t.Fatalf("a table router cached %d routes", r.CacheSize())
	}
}

// TestTableThreshold pins the size split and what lies either side of
// it: 32×32 nodes — 2²⁰ pairs, the bound exactly — get the table and
// nothing else whichever algorithm is asked for, report no cache and
// ignore its bound; 33×32 get the kernel asked for and a live cache, and
// — the smallest graph the public constructor puts on a kernel — answer
// every distance form bitwise as the reference does.
func TestTableThreshold(t *testing.T) {
	grid := func(rows, cols int) (*Graph, GridConfig) {
		cfg := DefaultGridConfig()
		cfg.Rows, cfg.Cols = rows, cols
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g, cfg
	}
	day := func(r *Router, cfg GridConfig) {
		pts := routerTestPoints(cfg.Box, 12, 4)
		for _, p := range pts[1:] {
			r.Dist(pts[0], p)
			r.Dist(pts[0], p)
		}
	}

	g, cfg := grid(32, 32)
	for _, algo := range []Algorithm{AlgoCH, AlgoALT} {
		r := NewRouterAlgo(g, cfg.Box, 0, algo)
		if r.table == nil || r.ch != nil || r.lm != nil {
			t.Fatalf("1 024 nodes under %s: table %v, hierarchy %v, landmarks %v; want the table alone",
				algo, r.table != nil, r.ch != nil, r.lm != nil)
		}
		r.SetCacheBound(1)
		day(r, cfg)
		if hits, misses, evictions := r.CacheStats(); hits|misses|evictions != 0 || r.CacheSize() != 0 {
			t.Fatalf("1 024 nodes under %s: cache stats %d/%d/%d, size %d; a table router has no cache",
				algo, hits, misses, evictions, r.CacheSize())
		}
	}

	g, cfg = grid(33, 32)
	r := NewRouter(g, cfg.Box, 0)
	if r.table != nil || r.ch == nil || r.lm != nil {
		t.Fatalf("1 056 nodes: table %v, hierarchy %v, landmarks %v; want the hierarchy alone", r.table != nil, r.ch != nil, r.lm != nil)
	}
	day(r, cfg)
	if hits, misses, _ := r.CacheStats(); hits == 0 || misses == 0 || r.CacheSize() == 0 {
		t.Fatalf("1 056 nodes: cache stats hits=%d misses=%d size=%d; want a live cache", hits, misses, r.CacheSize())
	}
	alt := NewRouterAlgo(g, cfg.Box, 0, AlgoALT)
	if alt.table != nil || alt.ch != nil || alt.lm == nil {
		t.Fatal("1 056 nodes under alt: want landmarks alone")
	}
	pts := routerTestPoints(cfg.Box, 12, 8)
	checkFormsAgainstRef(t, "1 056 nodes under ch", r, cfg.Box.Lerp(0.35, 0.6), pts)
	checkFormsAgainstRef(t, "1 056 nodes under alt", alt, cfg.Box.Lerp(0.35, 0.6), pts)
}

// TestNearestNodeExactTie: two nodes the same distance from the query to
// the last bit, the lower id in the cell the rings reach second. The
// bound that lets nearest pass over a node is strict, so the second node
// is still measured and the lowest id still wins.
func TestNearestNodeExactTie(t *testing.T) {
	box := geo.BoundingBox{MinLat: 41, MinLon: -9, MaxLat: 41.5, MaxLon: -8}
	g := &Graph{}
	east := g.AddNode(geo.Point{Lat: 41.25, Lon: -8.375})
	west := g.AddNode(geo.Point{Lat: 41.25, Lon: -8.625})
	p := geo.Point{Lat: 41.25, Lon: -8.5}
	if de, dw := geo.Equirectangular(p, g.Point(east)), geo.Equirectangular(p, g.Point(west)); de != dw {
		t.Fatalf("layout broken: %v km east, %v km west", de, dw)
	}
	for _, s := range []int{1, 2, 4, 8, 16} {
		if got := NewRouter(g, box, s).NearestNode(p); got != east {
			t.Fatalf("%dx%d snap grid: NearestNode = %d, want the lower id %d", s, s, got, east)
		}
	}
}

// TestTableExposedBound holds Table to its contract: a table router hands
// out its own n² entries, and for snaps a and b of it DistSnapped(a, b)
// never falls below b.AccessKm + dist[a.Node*n+b.Node] — pairs on one
// node included, and points outside the box, whose access legs are
// long — which is the bound the engine's road walks take the pickup leg
// from. A router routed by a kernel, and one over no node, hand out
// nothing.
func TestTableExposedBound(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 9, 11
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 0)
	dist, n := r.Table()
	if n != g.NumNodes() || len(dist) != n*n || &dist[0] != &r.table[0] {
		t.Fatalf("Table() handed out %d entries over %d nodes, want the router's own %d over %d", len(dist), n, n*n, g.NumNodes())
	}
	pts := append(routerTestPoints(cfg.Box, 60, 5), cfg.Box.Lerp(-0.5, 1.4), cfg.Box.Lerp(1.2, -0.3))
	snaps := make([]geo.Snap, len(pts))
	for i, p := range pts {
		snaps[i] = r.Snap(p)
	}
	same := 0
	for _, a := range snaps {
		for _, b := range snaps {
			if a.Node == b.Node {
				same++
			}
			if d, bound := r.DistSnapped(a, b), b.AccessKm+dist[int(a.Node)*n+int(b.Node)]; d < bound {
				t.Fatalf("DistSnapped(%+v, %+v) = %v, under the table bound %v", a, b, d, bound)
			}
		}
	}
	if same <= len(snaps) {
		t.Fatalf("only %d pairs on one node, %d of them a point with itself: the same-node case is not exercised", same, len(snaps))
	}
	if dist, n := kernelRouter(g, cfg.Box, 0, AlgoCH).Table(); dist != nil || n != 0 {
		t.Errorf("a kernel router handed out a table of %d entries over %d nodes", len(dist), n)
	}
	if dist, n := NewRouter(&Graph{}, cfg.Box, 0).Table(); dist != nil || n != 0 {
		t.Errorf("a router over no node handed out a table of %d entries over %d nodes", len(dist), n)
	}
}

// TestTableBitsPinned pins the all-pairs table by a sha256 over every
// entry's bits, row by row, on the default 20×24 grid, on the 32×32 grid
// at the table's bound and on a radial city. The table is what a journal
// replays against and what the engine's road walks bound pickups by, so
// a change to how its rows are swept must leave these sums as they are.
func TestTableBitsPinned(t *testing.T) {
	grid := func(rows, cols int) *Graph {
		cfg := DefaultGridConfig()
		cfg.Rows, cfg.Cols = rows, cols
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	radial, err := GenerateRadial(geo.PortoBox.Center(), 8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"20x24", grid(20, 24), "f372b2328eca872c451cc559e6e6e5b75b3739f7dfeeb73e7fd0eb0b1cc3b886"},
		{"32x32", grid(32, 32), "96aacaf402db88c2d0714708b31a9b110910e537fadc14e5ef4e7402b6394d43"},
		{"radial", radial, "5e581ac4b5c0d8520efad00ebd355ce104c6e8954b1ebde428aed1e822dc4e02"},
	} {
		dist, n := NewRouter(c.g, geo.PortoBox, 0).Table()
		if n != c.g.NumNodes() {
			t.Fatalf("%s: a table over %d nodes, want %d", c.name, n, c.g.NumNodes())
		}
		h := sha256.New()
		var buf [8]byte
		for _, d := range dist {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: table sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
