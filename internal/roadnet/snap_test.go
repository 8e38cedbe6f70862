package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// kernelRouter builds a router that routes with its kernel and cache
// even on a graph the all-pairs table would cover: the table's size
// bound set to zero, through the constructor's one unexported parameter.
func kernelRouter(g *Graph, box geo.BoundingBox, s int, algo Algorithm) *Router {
	return newRouter(g, box, s, algo, 0)
}

// refDist is the reference every public distance form is held bitwise
// equal to, and it shares nothing with them but the graph: a scan of
// every node for each endpoint's nearest (lowest id on a tie), the two
// access legs, plain Dijkstra between the nodes, the crow-fly floor
// always evaluated. No snap grid, no bound, no table, kernel or cache.
func refDist(r *Router, a, b geo.Point) float64 {
	crow := geo.Equirectangular(a, b)
	u, ua := bruteNearest(r.g, a)
	if u < 0 {
		return crow // empty graph: degrade to crow-fly
	}
	v, vb := bruteNearest(r.g, b)
	d := ua + vb
	if u != v {
		route, _ := r.g.ShortestPath(u, v)
		d += route
	}
	if crow > d {
		d = crow
	}
	return d
}

// checkFormsAgainstRef holds every public distance form bitwise equal
// to refDist over hub × pts, with hub as the shared endpoint of both
// batch shapes.
func checkFormsAgainstRef(t testing.TB, label string, r *Router, hub geo.Point, pts []geo.Point) {
	t.Helper()
	snap := func(p geo.Point) geo.Snap {
		s := r.Snap(p)
		if want, _ := bruteNearest(r.g, p); s.P != p || int(s.Node) != want || r.NearestNode(p) != want {
			t.Fatalf("%s: Snap(%v) = %+v, NearestNode = %d, a scan of every node finds %d", label, p, s, r.NearestNode(p), want)
		}
		return s
	}
	hubSnap := snap(hub)
	snaps := make([]geo.Snap, len(pts))
	for i, p := range pts {
		snaps[i] = snap(p)
	}
	from := make([]float64, len(pts)) // hub → pts[i]
	to := make([]float64, len(pts))   // pts[i] → hub
	for i, p := range pts {
		from[i], to[i] = refDist(r, hub, p), refDist(r, p, hub)
	}
	check := func(form string, i int, got, want float64) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: %s[%d] (hub %v, point %v) = %v, reference %v", label, form, i, hub, pts[i], got, want)
		}
	}
	for i, p := range pts {
		check("Dist", i, r.Dist(hub, p), from[i])
		check("Dist reversed", i, r.Dist(p, hub), to[i])
		check("DistSnapped", i, r.DistSnapped(hubSnap, snaps[i]), from[i])
		check("DistSnapped reversed", i, r.DistSnapped(snaps[i], hubSnap), to[i])
	}
	out := make([]float64, len(pts))
	batches := []struct {
		form string
		run  func()
		want []float64
	}{
		{"DistManySnappedInto", func() { r.DistManySnappedInto(hubSnap, snaps, out) }, from},
		{"DistManyToSnappedInto", func() { r.DistManyToSnappedInto(snaps, hubSnap, out) }, to},
		{"DistManyInto", func() { r.DistManyInto(hub, pts, out) }, from},
		{"DistManyToInto", func() { r.DistManyToInto(pts, hub, out) }, to},
	}
	for _, b := range batches {
		for i := range out {
			out[i] = math.NaN()
		}
		b.run()
		for i := range pts {
			check(b.form, i, out[i], b.want[i])
		}
	}
}

// snapTestRouters builds one router per distance tier over the 12x14
// test grid: the all-pairs table such a graph gets in production, and —
// through kernelRouter — the CH search kernels and ALT.
func snapTestRouters(t testing.TB) (map[string]*Router, GridConfig) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 12, 14
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	routers := map[string]*Router{
		"table": NewRouter(g, cfg.Box, 0),
		"ch":    kernelRouter(g, cfg.Box, 0, AlgoCH),
		"alt":   kernelRouter(g, cfg.Box, 0, AlgoALT),
	}
	if routers["table"].table == nil || routers["ch"].table != nil {
		t.Fatal("the table column is not on the table, or a kernel column is")
	}
	return routers, cfg
}

// TestSnappedFormsMatchReference is the contract of the snapped
// endpoint forms: DistSnapped, both snapped batch kernels and the
// point-form wrappers all return, bit for bit, what the reference
// returns — over random pairs inside and outside the snap box,
// coincident points, points sharing a nearest node (u == v), points
// sitting on nodes, an empty graph, and every distance tier. A batch
// is run twice so the second pass is served from the route cache.
func TestSnappedFormsMatchReference(t *testing.T) {
	routers, cfg := snapTestRouters(t)
	box := cfg.Box
	for name, r := range routers {
		rng := rand.New(rand.NewSource(17))
		for round := 0; round < 6; round++ {
			hub := box.Lerp(rng.Float64()*1.6-0.3, rng.Float64()*1.6-0.3)
			var pts []geo.Point
			for i := 0; i < 24; i++ {
				pts = append(pts, box.Lerp(rng.Float64(), rng.Float64()))         // inside
				pts = append(pts, box.Lerp(rng.Float64()*3-1, rng.Float64()*3-1)) // mostly outside
			}
			node := r.g.Point(rng.Intn(r.g.NumNodes()))
			pts = append(pts,
				hub, // coincident with the shared endpoint
				geo.Point{Lat: hub.Lat + 1e-6, Lon: hub.Lon - 1e-6}, // same nearest node
				node, // zero access leg
				geo.Point{Lat: node.Lat + 1e-5, Lon: node.Lon},
				pts[3], pts[0], // repeats: cached on second sight
				geo.Point{Lat: -33.9, Lon: 151.2}, // another continent
				geo.Point{Lat: 89.5, Lon: -179.5},
			)
			checkFormsAgainstRef(t, name, r, hub, pts)
			checkFormsAgainstRef(t, name+" (cached)", r, hub, pts)
		}
	}

	for _, algo := range []Algorithm{AlgoCH, AlgoALT} {
		empty := kernelRouter(&Graph{}, box, 0, algo)
		if s := empty.Snap(box.Center()); s.Node != -1 || s.AccessKm != 0 {
			t.Fatalf("empty graph (%s): Snap = %+v, want node -1 and no access leg", algo, s)
		}
		pts := routerTestPoints(box, 8, 2)
		checkFormsAgainstRef(t, "empty graph "+algo.String(), empty, box.Lerp(0.4, 1.3), pts)
	}
	checkFormsAgainstRef(t, "empty graph table", NewRouter(&Graph{}, box, 0), box.Lerp(0.4, 1.3), routerTestPoints(box, 8, 2))
}

// TestBoundsAcrossLatitudes holds the two planar bounds — the one that
// lets the snap pass over a node, the one that lets a distance skip its
// crow-fly floor — to the reference where their cosines are least alike:
// a city astride the equator (the upper cosine is 1), one in the far
// south, one at 70° north and one a few kilometres from the pole, where
// a degree of longitude shrinks fast across the band, each probed with
// points inside its band and outside it.
func TestBoundsAcrossLatitudes(t *testing.T) {
	for _, c := range []struct {
		name           string
		minLat, maxLat float64
	}{
		{"equator", -0.07, 0.08},
		{"south", -34.0, -33.85},
		{"north", 69.9, 70.05},
		{"polar", 89.8, 89.95},
	} {
		cfg := DefaultGridConfig()
		cfg.Rows, cfg.Cols = 9, 11
		lonSpan := math.Min(0.2/geo.CosLat(c.maxLat), 120) // ~20 km wide, while degrees last
		cfg.Box = geo.BoundingBox{MinLat: c.minLat, MinLon: -60, MaxLat: c.maxLat, MaxLon: -60 + lonSpan}
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for tier, r := range map[string]*Router{
			"table": NewRouter(g, cfg.Box, 0),
			"ch":    kernelRouter(g, cfg.Box, 0, AlgoCH),
		} {
			if astride := c.minLat < 0 && c.maxLat > 0; (r.cosHi == 1) != astride || r.cosLo > r.cosHi {
				t.Fatalf("%s: band [%v, %v] has cosines [%v, %v]", c.name, r.latLo, r.latHi, r.cosLo, r.cosHi)
			}
			rng := rand.New(rand.NewSource(23))
			for round := 0; round < 4; round++ {
				hub := cfg.Box.Lerp(rng.Float64(), rng.Float64())
				var pts []geo.Point
				for i := 0; i < 20; i++ {
					pts = append(pts,
						cfg.Box.Lerp(rng.Float64(), rng.Float64()),
						cfg.Box.Clamp(geo.Point{Lat: hub.Lat + (rng.Float64()-0.5)*2e-3, Lon: hub.Lon + (rng.Float64()-0.5)*2e-3}),
					)
				}
				for _, p := range []geo.Point{
					cfg.Box.Lerp(1.4, rng.Float64()), cfg.Box.Lerp(-0.4, rng.Float64()), cfg.Box.Lerp(rng.Float64(), 1.3),
				} {
					if p.Valid() {
						pts = append(pts, p)
					}
				}
				checkFormsAgainstRef(t, c.name+" "+tier, r, hub, pts)
				checkFormsAgainstRef(t, c.name+" "+tier+" from outside the band", r, pts[len(pts)-1], pts)
			}
		}
	}
}

// TestRouterSnapsCounted pins what the snap counter counts, since the
// engine's snap-once pin is stated in it: one per Snap, two per Dist,
// one per point of a point-form batch, none for the snapped forms.
func TestRouterSnapsCounted(t *testing.T) {
	routers, cfg := snapTestRouters(t)
	r := routers["ch"]
	pts := routerTestPoints(cfg.Box, 9, 4)
	out := make([]float64, len(pts))

	at := r.Snaps()
	step := func(what string, want uint64) {
		t.Helper()
		if got := r.Snaps() - at; got != want {
			t.Fatalf("%s counted %d snaps, want %d", what, got, want)
		}
		at = r.Snaps()
	}
	hub := r.Snap(pts[0])
	step("Snap", 1)
	r.Dist(pts[1], pts[2])
	step("Dist", 2)
	r.DistManyInto(pts[0], pts, out)
	step("DistManyInto", uint64(len(pts))+1)
	r.DistManyToInto(pts, pts[0], out)
	step("DistManyToInto", uint64(len(pts))+1)
	snaps := r.snapAll(pts)
	step("snapAll", uint64(len(pts)))
	r.DistSnapped(hub, snaps[3])
	r.DistManySnappedInto(hub, snaps, out)
	r.DistManyToSnappedInto(snaps, hub, out)
	step("the snapped forms", 0)
}

// FuzzRouterDist throws arbitrary valid point pairs at every tier, and
// at the router of tieGraph: the distance must be finite, never below
// crow-fly (the admissibility the spatial pruning rail depends on), and
// bitwise the reference in every form — pair, snapped pair, and a batch
// of one in each shape — with both points resolved to the node a scan of
// every node resolves them to.
func FuzzRouterDist(f *testing.F) {
	routers, cfg := snapTestRouters(f)
	tie, tieBox, tieCorner := tieGraph()
	routers["tie"] = NewRouter(tie, tieBox, 4)
	box := cfg.Box
	in, out := box.Lerp(0.31, 0.77), box.Lerp(0.9, 0.12)
	node := routers["ch"].g.Point(5)
	f.Add(in.Lat, in.Lon, out.Lat, out.Lon)
	f.Add(in.Lat, in.Lon, in.Lat, in.Lon)                    // coincident
	f.Add(node.Lat, node.Lon, node.Lat+1e-7, node.Lon)       // on a node, same nearest node
	f.Add(box.MinLat-0.4, box.MinLon-0.9, in.Lat, in.Lon)    // outside the snap box
	f.Add(-33.9, 151.2, 64.1, -21.9)                         // both far outside, far apart
	f.Add(90.0, 180.0, -90.0, -180.0)                        // the corners of the legal range
	f.Add(box.MaxLat, box.MaxLon, box.MinLat, box.MinLon)    // the box's own corners
	f.Add(0.0, 0.0, math.SmallestNonzeroFloat64, -1e-300)    // denormal offsets
	f.Add(in.Lat, in.Lon, in.Lat, math.Nextafter(in.Lon, 1)) // one ulp apart
	g := routers["ch"].g
	mid := geo.Midpoint(g.Point(5), g.Point(6))
	f.Add(mid.Lat, mid.Lon, in.Lat, in.Lon)                 // as far from one node as from the next: the snap's skip test at its slack
	f.Add(0.3, -8.6, -0.2, -8.5)                            // astride the equator, outside the band: the snap bounds under the query's own cosine, the floor's bound stands down
	f.Add(node.Lat+1e-4, node.Lon, node.Lat-1e-4, node.Lon) // either side of one node, in line with it: leg sum and crow-fly agree to rounding
	// Three named seeds for the snap's cell lists, on the 12x14 routers'
	// snap grid (row 7, column 11; the grid sized from the node count):
	rows, cols := routers["table"].grid.Rows, routers["table"].grid.Cols
	cellCorner := box.Lerp(7/float64(rows), 11/float64(cols))
	edgeMid := box.Lerp(7/float64(rows), 11.5/float64(cols))
	f.Add(cellCorner.Lat, cellCorner.Lon, in.Lat, in.Lon)                                 // cellCorner: a snap-cell corner inside the box
	f.Add(math.Nextafter(edgeMid.Lat, -90), edgeMid.Lon, edgeMid.Lat, edgeMid.Lon)        // ulpAcrossEdge: one ulp south of a cell edge, and on it
	f.Add(tieCorner.Lat, tieCorner.Lon, math.Nextafter(tieCorner.Lat, 90), tieCorner.Lon) // builtTie: tieGraph's corner, equidistant to the bit, and one ulp north
	f.Fuzz(func(t *testing.T, lat1, lon1, lat2, lon2 float64) {
		a, b := geo.Point{Lat: lat1, Lon: lon1}, geo.Point{Lat: lat2, Lon: lon2}
		if !a.Valid() || !b.Valid() {
			t.Skip() // model validation rejects these before any distance is taken
		}
		for name, r := range routers {
			d := r.Dist(a, b)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("%s: Dist(%v, %v) = %v, want finite", name, a, b, d)
			}
			if crow := geo.Equirectangular(a, b); d < crow {
				t.Fatalf("%s: Dist(%v, %v) = %v undercuts crow-fly %v", name, a, b, d, crow)
			}
			checkFormsAgainstRef(t, name, r, a, []geo.Point{b})
		}
	})
}
