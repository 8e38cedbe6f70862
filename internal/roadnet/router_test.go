package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
)

// bruteNearest is the ground truth for NearestNode: a full scan, the
// lowest id winning an exact tie.
func bruteNearest(g *Graph, p geo.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for id := 0; id < g.NumNodes(); id++ {
		if d := geo.Equirectangular(p, g.Point(id)); d < bestD {
			best, bestD = id, d
		}
	}
	return best, bestD
}

// TestNearestNodeRegression reconstructs the exact layout the old
// implementation got wrong: the query's cell and Moore neighborhood are
// not all empty (so the full-scan fallback never fired) but the true
// nearest intersection lies two rings out.
func TestNearestNodeRegression(t *testing.T) {
	box := geo.PortoBox
	grid := geo.NewGrid(box, 10, 10)
	p := grid.CellCenter(5*10 + 5)

	g := &Graph{}
	// Decoy in the Moore neighborhood: far corner of cell (6,6).
	decoy := g.AddNode(box.Lerp(6.95/10, 6.95/10))
	// True nearest: near edge of cell (5,7), outside the Moore ring.
	want := g.AddNode(box.Lerp(5.5/10, 7.02/10))

	r := NewRouter(g, box, 10)
	got := r.NearestNode(p)
	bf, _ := bruteNearest(g, p)
	if bf != want {
		t.Fatalf("layout broken: brute force picked %d, want %d", bf, want)
	}
	if got != want {
		t.Fatalf("NearestNode = %d (decoy=%d), want %d: expanding ring must look past a populated Moore neighborhood", got, decoy, want)
	}
}

// TestNearestNodeDifferential compares the expanding-ring search
// against brute force over random graphs: clustered node layouts (which
// leave most cells empty, the regime the old code got wrong) probed
// with uniform query points, including points outside the box. The
// answer must be the brute-force node itself, whatever the snap grid's
// dimension — an explicit one or the one sized from the node count.
func TestNearestNodeDifferential(t *testing.T) {
	box := geo.PortoBox
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &Graph{}
		clusters := 1 + rng.Intn(4)
		nodes := 5 + rng.Intn(60)
		centers := make([]geo.Point, clusters)
		for i := range centers {
			centers[i] = box.Lerp(rng.Float64(), rng.Float64())
		}
		for i := 0; i < nodes; i++ {
			c := centers[rng.Intn(clusters)]
			g.AddNode(box.Clamp(geo.Point{
				Lat: c.Lat + (rng.Float64()-0.5)*0.01,
				Lon: c.Lon + (rng.Float64()-0.5)*0.01,
			}))
		}
		routers := []*Router{NewRouter(g, box, 8+rng.Intn(16)), NewRouter(g, box, 0)}
		for q := 0; q < 200; q++ {
			p := box.Lerp(rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1)
			want, wantD := bruteNearest(g, p)
			for _, r := range routers {
				if got := r.NearestNode(p); got != want {
					t.Fatalf("seed %d query %v (%dx%d snap grid): NearestNode returned node %d at %.6f km, brute force found node %d at %.6f km",
						seed, p, r.grid.Rows, r.grid.Cols, got, geo.Equirectangular(p, g.Point(got)), want, wantD)
				}
			}
		}
	}
}

func TestNearestNodeEmptyGraph(t *testing.T) {
	r := NewRouter(&Graph{}, geo.PortoBox, 8)
	if got := r.NearestNode(geo.PortoBox.Center()); got != -1 {
		t.Fatalf("NearestNode on empty graph = %d, want -1", got)
	}
	a, b := geo.PortoBox.Lerp(0.2, 0.2), geo.PortoBox.Lerp(0.7, 0.7)
	if got, want := r.Dist(a, b), geo.Equirectangular(a, b); got != want {
		t.Fatalf("empty-graph Dist = %v, want crow-fly %v", got, want)
	}
}

// TestRouterDistDominatesCrowFly is the admissibility property the
// spatial pruning rail depends on: the network metric never undercuts
// straight-line distance, so crow-fly ring queries remain conservative.
func TestRouterDistDominatesCrowFly(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		a := cfg.Box.Lerp(rng.Float64(), rng.Float64())
		b := cfg.Box.Lerp(rng.Float64(), rng.Float64())
		if i%10 == 0 { // near-coincident pairs stress the access legs
			b = geo.Point{Lat: a.Lat + (rng.Float64()-0.5)*1e-3, Lon: a.Lon + (rng.Float64()-0.5)*1e-3}
		}
		crow := geo.Equirectangular(a, b)
		if net := r.Dist(a, b); net < crow {
			t.Fatalf("Dist(%v, %v) = %v < crow-fly %v", a, b, net, crow)
		}
	}
}

// TestRouterDistMatchesUnchachedRoute checks the whole snap+cache+ALT
// pipeline against a from-scratch computation.
func TestRouterDistMatchesUnchachedRoute(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Seed = 5
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		a := cfg.Box.Lerp(rng.Float64(), rng.Float64())
		b := cfg.Box.Lerp(rng.Float64(), rng.Float64())
		u, _ := bruteNearest(g, a)
		v, _ := bruteNearest(g, b)
		want := geo.Equirectangular(a, g.Point(u)) + geo.Equirectangular(b, g.Point(v))
		if u != v {
			d, _ := g.ShortestPath(u, v)
			want += d
		}
		if crow := geo.Equirectangular(a, b); crow > want {
			want = crow
		}
		if got := r.Dist(a, b); got != want {
			t.Fatalf("Dist(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

// TestAStarBitwiseEqualsDijkstra is the property wall for the ALT
// kernel: on generated cities (grids across seeds, and a radial town),
// landmark A* returns bitwise-identical distances to Dijkstra.
func TestAStarBitwiseEqualsDijkstra(t *testing.T) {
	check := func(t *testing.T, g *Graph) {
		t.Helper()
		lm := NewLandmarks(g, g.SelectLandmarks(8))
		n := g.NumNodes()
		for u := 0; u < n; u += 3 {
			for v := 0; v < n; v += 5 {
				d0, _ := g.ShortestPath(u, v)
				d1, _ := g.AStarALT(lm, u, v)
				if d0 != d1 {
					t.Fatalf("AStarALT(%d,%d) = %v, Dijkstra = %v", u, v, d1, d0)
				}
			}
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		cfg := DefaultGridConfig()
		cfg.Seed = seed
		cfg.Rows, cfg.Cols = 12, 14
		cfg.RemoveFrac = 0.05 * float64(seed%4)
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, g)
	}
	g, err := GenerateRadial(geo.PortoBox.Center(), 5, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	check(t, g)
}

// TestLandmarkLowerBoundAdmissible: the ALT bound never exceeds the
// true shortest-path distance (up to float rounding of the Dijkstra
// sums themselves).
func TestLandmarkLowerBoundAdmissible(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 10, 12
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lm := NewLandmarks(g, g.SelectLandmarks(6))
	if lm.NumLandmarks() != 6 {
		t.Fatalf("NumLandmarks = %d, want 6", lm.NumLandmarks())
	}
	n := g.NumNodes()
	for u := 0; u < n; u += 2 {
		for v := 0; v < n; v += 3 {
			d, _ := g.ShortestPath(u, v)
			if b := lm.LowerBound(u, v); b > d*(1+1e-12)+1e-12 {
				t.Fatalf("LowerBound(%d,%d) = %v exceeds true distance %v", u, v, b, d)
			}
		}
	}
}

func TestSelectLandmarksClampsAndDedups(t *testing.T) {
	g, err := GenerateRadial(geo.PortoBox.Center(), 2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := g.SelectLandmarks(1000)
	if len(ids) > g.NumNodes() {
		t.Fatalf("SelectLandmarks returned %d ids for %d nodes", len(ids), g.NumNodes())
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("landmark %d selected twice", id)
		}
		seen[id] = true
	}
	if got := g.SelectLandmarks(0); got != nil {
		t.Fatalf("SelectLandmarks(0) = %v, want nil", got)
	}
}

// TestRouterCacheSingleflight: concurrent misses on one key coalesce
// onto a single route computation. Run with -race.
func TestRouterCacheSingleflight(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := kernelRouter(g, cfg.Box, 10, AlgoCH)
	a, b := cfg.Box.Lerp(0.1, 0.1), cfg.Box.Lerp(0.9, 0.9)

	const workers = 64
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	vals := make([]float64, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			start.Wait()
			vals[w] = r.Dist(a, b)
		}(w)
	}
	start.Done()
	done.Wait()
	for w := 1; w < workers; w++ {
		if vals[w] != vals[0] {
			t.Fatalf("worker %d saw %v, worker 0 saw %v", w, vals[w], vals[0])
		}
	}
	_, misses, _ := r.CacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1: concurrent misses on one key must run a single A*", misses)
	}
}

// TestRouterCacheConcurrentMixed hammers the cache with overlapping
// keys from many goroutines; run with -race. Every lookup lands in
// exactly one counter and the cache honors its bound.
func TestRouterCacheConcurrentMixed(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := kernelRouter(g, cfg.Box, 10, AlgoCH)
	r.SetCacheBound(64)

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				a := cfg.Box.Lerp(rng.Float64(), rng.Float64())
				b := cfg.Box.Lerp(rng.Float64(), rng.Float64())
				if d := r.Dist(a, b); math.IsNaN(d) || d < 0 {
					t.Errorf("Dist = %v", d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if size := r.CacheSize(); size > 64 {
		t.Fatalf("cache size %d exceeds bound", size)
	}
	hits, misses, evictions := r.CacheStats()
	if misses == 0 || evictions == 0 {
		t.Fatalf("expected misses and evictions with a 64-entry bound; got hits=%d misses=%d evictions=%d",
			hits, misses, evictions)
	}
}

// TestRouterKernelConcurrentBatches: goroutines sharing one kernel
// router — batches of both shapes and single pairs at once, every one of
// them after the hierarchy's one scratch, under a bound that keeps them
// missing — get what a router asked by one goroutine gets, bit for bit.
// Run with -race.
func TestRouterKernelConcurrentBatches(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 12, 14
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := routerTestPoints(cfg.Box, 24, 5)
	ref := kernelRouter(g, cfg.Box, 0, AlgoCH)
	want := make([][]float64, len(pts)) // want[i][j] = Dist(pts[i], pts[j])
	for i, p := range pts {
		want[i] = make([]float64, len(pts))
		for j, q := range pts {
			want[i][j] = ref.Dist(p, q)
		}
	}
	r := kernelRouter(g, cfg.Box, 0, AlgoCH)
	r.SetCacheBound(32)
	const workers = 6
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			out := make([]float64, len(pts))
			for k := range pts {
				i := (k + 5*w) % len(pts)
				switch w % 3 {
				case 0:
					r.DistManyInto(pts[i], pts, out)
				case 1:
					r.DistManyToInto(pts, pts[i], out)
				default:
					for j, q := range pts {
						out[j] = r.Dist(pts[i], q)
					}
				}
				for j := range pts {
					a, b := i, j
					if w%3 == 1 {
						a, b = j, i
					}
					if out[j] != want[a][b] {
						t.Errorf("worker %d: Dist(pts[%d], pts[%d]) = %v, alone %v", w, a, b, out[j], want[a][b])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRouterCacheEviction drives more distinct node pairs than the
// bound admits and checks FIFO eviction keeps the size capped while
// still returning correct distances.
func TestRouterCacheEviction(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := kernelRouter(g, cfg.Box, 10, AlgoCH)
	r.SetCacheBound(16)
	n := g.NumNodes()
	for u := 0; u < n; u += 2 {
		for v := 1; v < n; v += 7 {
			if u == v {
				continue
			}
			want, _ := g.ShortestPath(u, v)
			if got := r.nodeDist(int32(u), int32(v)); got != want {
				t.Fatalf("nodeDist(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	if size := r.CacheSize(); size > 16 {
		t.Fatalf("cache size %d exceeds bound 16", size)
	}
	_, misses, evictions := r.CacheStats()
	if evictions == 0 || evictions >= misses {
		t.Fatalf("evictions = %d, misses = %d: want 0 < evictions < misses", evictions, misses)
	}
	// Re-resolving an evicted key must recompute the same value.
	want, _ := g.ShortestPath(0, g.NumNodes()-1)
	if got := r.nodeDist(0, int32(g.NumNodes()-1)); got != want {
		t.Fatalf("post-eviction nodeDist = %v, want %v", got, want)
	}
}

func TestRouterCacheStatsAccounting(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := kernelRouter(g, cfg.Box, 10, AlgoCH)
	a, b := cfg.Box.Lerp(0.2, 0.3), cfg.Box.Lerp(0.8, 0.6)
	r.Dist(a, b)
	r.Dist(a, b)
	r.Dist(a, b)
	hits, misses, evictions := r.CacheStats()
	if misses != 1 || hits != 2 || evictions != 0 {
		t.Fatalf("stats = (hits=%d, misses=%d, evictions=%d), want (2, 1, 0)", hits, misses, evictions)
	}
}

// TestRouterCacheBoundExact: the cache holds at most the bound it is
// given, not a rounding of it, and a miss past the bound evicts exactly
// one entry.
func TestRouterCacheBoundExact(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for _, bound := range []int{1, 5, 64} {
		r := kernelRouter(g, cfg.Box, 10, AlgoCH)
		r.SetCacheBound(bound)
		for i, asked := 0, 0; asked < 10*bound; i++ {
			if u, v := i/n, i%n; u != v {
				r.nodeDist(int32(u), int32(v))
				asked++
			}
		}
		hits, misses, evictions := r.CacheStats()
		if size := r.CacheSize(); size > bound {
			t.Errorf("bound %d: cache size %d", bound, size)
		}
		if hits != 0 || misses != uint64(10*bound) || evictions != misses-uint64(bound) {
			t.Errorf("bound %d: hits=%d misses=%d evictions=%d, want 0, %d, %d",
				bound, hits, misses, evictions, 10*bound, 9*bound)
		}
	}
}

// TestRouterKernelMissAllocs: a route cache miss on the kernel tier, one
// pair at a time or a whole batch, allocates nothing of its own once the
// cache is at its bound — no call record, no channel, no scratch.
func TestRouterKernelMissAllocs(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 12, 14
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := kernelRouter(g, cfg.Box, 0, AlgoCH)
	r.SetCacheBound(1024)
	n := g.NumNodes()
	snaps := make([]geo.Snap, n)
	for u := range snaps {
		if snaps[u] = r.Snap(g.Point(u)); snaps[u].Node != int32(u) {
			t.Fatalf("node %d snapped to %d", u, snaps[u].Node)
		}
	}
	// The ordered pairs row by row, each once; the last rows stay fresh
	// for the batches.
	next := 0
	fresh := func() float64 {
		u, v := next/n, next%n
		if next++; u == v {
			v = (v + 1) % n
			next++
		}
		return r.DistSnapped(snaps[u], snaps[v])
	}
	for range 2048 {
		fresh()
	}
	const perRun, runs = 64, 20
	_, before, _ := r.CacheStats()
	if per := testing.AllocsPerRun(runs, func() {
		for range perRun {
			fresh()
		}
	}) / perRun; per >= 0.1 {
		t.Errorf("%.3f allocations per DistSnapped miss, want none", per)
	}
	if _, misses, _ := r.CacheStats(); misses-before != (runs+1)*perRun {
		t.Fatalf("%d misses over %d fresh pairs", misses-before, (runs+1)*perRun)
	}
	// A batch from each of the last nodes to every other node: no pair
	// of that origin has been asked yet.
	const batches = 10
	targets := make([][]geo.Snap, batches+1)
	for k := range targets {
		o := n - 1 - k
		targets[k] = append(slices.Clone(snaps[:o]), snaps[o+1:]...)
	}
	out := make([]float64, n-1)
	k := 0
	_, before, _ = r.CacheStats()
	if per := testing.AllocsPerRun(batches, func() {
		r.DistManySnappedInto(snaps[n-1-k], targets[k], out)
		k++
	}) / float64(n-1); per >= 0.1 {
		t.Errorf("%.3f allocations per batched miss, want none", per)
	}
	if _, misses, _ := r.CacheStats(); misses-before != uint64((batches+1)*(n-1)) {
		t.Fatalf("%d misses over %d batches of %d fresh pairs", misses-before, batches+1, n-1)
	}
}

// --- micro-benchmarks (fast: they run in the short-bench smoke) ------

func benchGraph(b *testing.B) (*Graph, GridConfig) {
	b.Helper()
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g, cfg
}

// BenchmarkRouterBuild is what a service pays before its first order, by
// tier: the all-pairs table the default grid gets and the one of the
// 32×32 grid at the table's bound (both swept on GOMAXPROCS workers, so
// read them at -cpu 1 and above), the default grid's 480 rows swept one
// after another on one goroutine with no snap lists (the one-core sweep
// apart from the parallel split), the hierarchy the default grid got
// before the table (through kernelRouter), and the hierarchy of a graph
// well over the table's bound.
func BenchmarkRouterBuild(b *testing.B) {
	router := func(g *Graph, box geo.BoundingBox) { NewRouter(g, box, 0) }
	for _, c := range []struct {
		name       string
		rows, cols int
		build      func(g *Graph, box geo.BoundingBox)
	}{
		{"table-20x24", 20, 24, router},
		{"table-32x32", 32, 32, router},
		{"sweeps-20x24", 20, 24, func(g *Graph, _ geo.BoundingBox) {
			n := g.NumNodes()
			table, s := make([]float64, n*n), newSweeper(g.adj)
			for u := range n {
				s.sweep(int32(u), table[u*n:][:n])
			}
		}},
		{"ch-20x24", 20, 24, func(g *Graph, box geo.BoundingBox) { kernelRouter(g, box, 0, AlgoCH) }},
		{"ch-60x72", 60, 72, router},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.rows*c.cols > 1024 && testing.Short() {
				b.Skip("a 4 320-node hierarchy takes most of a second to build")
			}
			cfg := DefaultGridConfig()
			cfg.Rows, cfg.Cols = c.rows, c.cols
			g, err := GenerateGrid(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.build(g, cfg.Box)
			}
		})
	}
}

// BenchmarkRouterNearestNode times one snap search of a point inside the
// box on the default grid and on network_large's 60×72 grid, the
// contraction hierarchy's tier, and reports the work under the time: the
// length of the cell's list read, and the exact distances taken of it
// (the nodes the planar bound cannot pass over).
func BenchmarkRouterNearestNode(b *testing.B) {
	for _, c := range []struct {
		name       string
		rows, cols int
	}{{"20x24", 20, 24}, {"60x72", 60, 72}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultGridConfig()
			cfg.Rows, cfg.Cols = c.rows, c.cols
			g, err := GenerateGrid(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r := NewRouter(g, cfg.Box, 0)
			pts := routerTestPoints(cfg.Box, 1024, 3)
			listed := 0
			for _, p := range pts {
				listed += len(cellList(r, p))
			}
			measured := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, m := r.nearest(pts[i%len(pts)])
				measured += m
			}
			b.ReportMetric(float64(listed)/float64(len(pts)), "list-len/snap")
			b.ReportMetric(float64(measured)/float64(b.N), "nodes-measured/snap")
		})
	}
}

// BenchmarkDistSnappedTable times the distance the engine's scoring loop
// takes half a million times a day: two kept snaps, one table load, the
// floor's bound.
func BenchmarkDistSnappedTable(b *testing.B) {
	g, cfg := benchGraph(b)
	r := NewRouter(g, cfg.Box, 0)
	snaps := r.snapAll(routerTestPoints(cfg.Box, 1024, 3))
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += r.DistSnapped(snaps[i%len(snaps)], snaps[(i*7+3)%len(snaps)])
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN distance")
	}
}

// BenchmarkRouterDistCached times a point-form distance whose route the
// cache already holds, on the kernel tier: two snap searches, one cache
// hit under the router's mutex.
func BenchmarkRouterDistCached(b *testing.B) {
	g, cfg := benchGraph(b)
	r := kernelRouter(g, cfg.Box, 10, AlgoCH)
	a, c := cfg.Box.Lerp(0.1, 0.15), cfg.Box.Lerp(0.85, 0.8)
	r.Dist(a, c) // warm the single hot entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Dist(a, c)
	}
}

func BenchmarkAStarLandmarks(b *testing.B) {
	g, _ := benchGraph(b)
	lm := NewLandmarks(g, g.SelectLandmarks(defaultLandmarks))
	n := g.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := (i * 7919) % n
		v := (i*104729 + 13) % n
		if u == v {
			v = (v + 1) % n
		}
		g.AStarALT(lm, u, v)
	}
}
