package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func TestShortestPathTriangle(t *testing.T) {
	// Three nodes on a line; the direct edge is longer than the detour.
	g := &Graph{}
	a := g.AddNode(geo.Point{Lat: 41.15, Lon: -8.61})
	b := g.AddNode(geo.Point{Lat: 41.16, Lon: -8.61})
	c := g.AddNode(geo.Point{Lat: 41.17, Lon: -8.61})
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 1)
	g.AddEdge(a, c, 5)
	d, path := g.ShortestPath(a, c)
	if math.Abs(d-2) > 1e-12 {
		t.Fatalf("dist = %g, want 2 via detour", d)
	}
	if len(path) != 3 || path[0] != a || path[1] != b || path[2] != c {
		t.Fatalf("path = %v, want [a b c]", path)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(geo.Point{Lat: 41.15, Lon: -8.61})
	b := g.AddNode(geo.Point{Lat: 41.16, Lon: -8.61})
	g.AddEdge(a, b, 1) // one-way
	if d, _ := g.ShortestPath(b, a); !math.IsInf(d, 1) {
		t.Fatalf("expected +Inf for unreachable, got %g", d)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(geo.Point{Lat: 41.15, Lon: -8.61})
	d, path := g.ShortestPath(a, a)
	if d != 0 || len(path) != 1 {
		t.Fatalf("self route: d=%g path=%v", d, path)
	}
}

// randomGraph builds a connected random graph for cross-checking.
func randomConnected(rng *rand.Rand, n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.AddNode(geo.PortoBox.Lerp(rng.Float64(), rng.Float64()))
	}
	// Random spanning chain keeps it connected.
	for i := 1; i < n; i++ {
		g.AddRoad(i-1, i, 1+rng.Float64())
	}
	extra := n * 2
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddRoad(u, v, 1+rng.Float64())
		}
	}
	return g
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(10)
		g := randomConnected(rng, n)

		// Floyd-Warshall reference.
		inf := math.Inf(1)
		fw := make([][]float64, n)
		for i := range fw {
			fw[i] = make([]float64, n)
			for j := range fw[i] {
				if i != j {
					fw[i][j] = inf
				}
			}
		}
		for u := 0; u < n; u++ {
			for _, e := range g.adj[u] {
				if e.km < fw[u][e.to] {
					fw[u][e.to] = e.km
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if fw[i][k]+fw[k][j] < fw[i][j] {
						fw[i][j] = fw[i][k] + fw[k][j]
					}
				}
			}
		}

		for i := 0; i < n; i++ {
			ds := g.DistancesFrom(i)
			for j := 0; j < n; j++ {
				d, _ := g.ShortestPath(i, j)
				if math.Abs(d-fw[i][j]) > 1e-9 {
					t.Fatalf("trial %d: dist(%d,%d) = %g, FW %g", trial, i, j, d, fw[i][j])
				}
				if math.Abs(ds[j]-fw[i][j]) > 1e-9 {
					t.Fatalf("trial %d: DistancesFrom mismatch at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func TestPathEdgesExist(t *testing.T) {
	g, err := GenerateGrid(DefaultGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		u := rng.Intn(g.NumNodes())
		v := rng.Intn(g.NumNodes())
		d, path := g.ShortestPath(u, v)
		if u != v && (len(path) < 2 || path[0] != u || path[len(path)-1] != v) {
			t.Fatalf("path endpoints wrong: %v", path)
		}
		var sum float64
		for k := 1; k < len(path); k++ {
			found := math.Inf(1)
			for _, e := range g.adj[path[k-1]] {
				if int(e.to) == path[k] && e.km < found {
					found = e.km
				}
			}
			if math.IsInf(found, 1) {
				t.Fatalf("path uses missing edge %d→%d", path[k-1], path[k])
			}
			sum += found
		}
		if math.Abs(sum-d) > 1e-9 {
			t.Fatalf("path length %g != reported %g", sum, d)
		}
	}
}

func TestGridGeneratorConnectivity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := DefaultGridConfig()
		cfg.Seed = seed
		cfg.RemoveFrac = 0.3
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !g.StronglyConnected() {
			t.Fatalf("seed %d: grid not strongly connected", seed)
		}
		if g.NumNodes() != cfg.Rows*cfg.Cols {
			t.Fatalf("nodes = %d, want %d", g.NumNodes(), cfg.Rows*cfg.Cols)
		}
	}
}

func TestGridConfigValidation(t *testing.T) {
	cases := []func(*GridConfig){
		func(c *GridConfig) { c.Rows = 1 },
		func(c *GridConfig) { c.RemoveFrac = 0.9 },
		func(c *GridConfig) { c.DiagonalFrac = -0.1 },
		func(c *GridConfig) { c.Jitter = 0.9 },
		func(c *GridConfig) { c.Box.MaxLat = c.Box.MinLat },
	}
	for i, mut := range cases {
		cfg := DefaultGridConfig()
		mut(&cfg)
		if _, err := GenerateGrid(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRadialGenerator(t *testing.T) {
	center := geo.PortoBox.Center()
	g, err := GenerateRadial(center, 4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1+4*8 {
		t.Fatalf("nodes = %d, want 33", g.NumNodes())
	}
	if !g.StronglyConnected() {
		t.Fatal("radial network not strongly connected")
	}
	// Opposite rim nodes route through or around the center: distance
	// must be positive and finite.
	d, _ := g.ShortestPath(1, 1+8*3+4)
	if math.IsInf(d, 1) || d <= 0 {
		t.Fatalf("rim-to-rim distance %g", d)
	}
}

func TestRadialValidation(t *testing.T) {
	center := geo.PortoBox.Center()
	if _, err := GenerateRadial(center, 0, 8, 5); err == nil {
		t.Error("0 rings accepted")
	}
	if _, err := GenerateRadial(center, 2, 2, 5); err == nil {
		t.Error("2 spokes accepted")
	}
	if _, err := GenerateRadial(center, 2, 6, -1); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestRouterSnapAndDistance(t *testing.T) {
	g, err := GenerateGrid(DefaultGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, geo.PortoBox, 8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
		b := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
		crow := geo.Equirectangular(a, b)
		net := r.Dist(a, b)
		if net < 0 || math.IsInf(net, 1) || math.IsNaN(net) {
			t.Fatalf("bad network distance %g", net)
		}
		// Network distance cannot be much shorter than straight line
		// (snap legs can shave a little on very short hops).
		if crow > 2 && net < crow*0.8 {
			t.Fatalf("network %g below straight-line %g", net, crow)
		}
	}
}

func TestRouterNearestNode(t *testing.T) {
	g, err := GenerateGrid(DefaultGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, geo.PortoBox, 8)
	// The nearest node to a node's own position is that node (or one at
	// equal distance).
	for id := 0; id < g.NumNodes(); id += 17 {
		got := r.NearestNode(g.Point(id))
		if geo.Equirectangular(g.Point(got), g.Point(id)) > 1e-9 {
			t.Fatalf("NearestNode(%d's point) = %d at positive distance", id, got)
		}
	}
}

func TestRouterCaches(t *testing.T) {
	g, err := GenerateGrid(DefaultGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, geo.PortoBox, 8)
	a := geo.PortoBox.Lerp(0.1, 0.1)
	b := geo.PortoBox.Lerp(0.9, 0.9)
	d1 := r.Dist(a, b)
	n1 := r.CacheSize()
	d2 := r.Dist(a, b)
	if d1 != d2 {
		t.Fatalf("cached distance differs: %g vs %g", d1, d2)
	}
	if r.CacheSize() != n1 {
		t.Fatalf("second identical query grew the cache")
	}
}

func TestRouterConcurrentAccess(t *testing.T) {
	g, err := GenerateGrid(DefaultGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, geo.PortoBox, 8)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				a := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
				b := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
				if d := r.Dist(a, b); d < 0 {
					panic("negative distance")
				}
			}
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

func TestGridCircuityRealistic(t *testing.T) {
	g, err := GenerateGrid(DefaultGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, geo.PortoBox, 8)
	c := r.Circuity(300)
	// Manhattan-style networks sit between 1.1 (many diagonals) and
	// ~1.45 (pure grid with removals).
	if c < 1.05 || c > 1.6 {
		t.Fatalf("circuity %.3f outside realistic urban range", c)
	}
}

// TestCircuityAcrossTiers: Circuity samples nodeDist, so a kernel
// router, which holds its lock over the whole sample, returns the table
// router's mean bit for bit under either kernel; a graph of fewer than
// two nodes has nothing to sample and reads 1.
func TestCircuityAcrossTiers(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 12, 14
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := NewRouter(g, cfg.Box, 0).Circuity(300)
	for _, algo := range []Algorithm{AlgoCH, AlgoALT} {
		if got := kernelRouter(g, cfg.Box, 0, algo).Circuity(300); got != want {
			t.Errorf("%v: circuity %v, the table's %v", algo, got, want)
		}
	}
	one := &Graph{}
	one.AddNode(cfg.Box.Center())
	if c := NewRouter(one, cfg.Box, 0).Circuity(10); c != 1 {
		t.Errorf("one-node circuity %v, want 1", c)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := &Graph{}
	g.AddNode(geo.PortoBox.Center())
	for _, fn := range []func(){
		func() { g.AddEdge(0, 1, 1) },
		func() { g.AddEdge(0, 0, -1) },
		func() { g.AddEdge(0, 0, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
