package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// refDist is Router.Dist as it read before the snapped forms existed —
// both nearest-node searches inside the call, the access legs, the
// route, the crow-fly floor — kept here as the reference every public
// form is held bitwise equal to. It routes with the point-to-point
// kernel directly, so it shares neither the cache nor the batch probes
// with the forms under test.
func refDist(r *Router, a, b geo.Point) float64 {
	crow := geo.Equirectangular(a, b)
	u := r.NearestNode(a)
	if u < 0 {
		return crow // empty graph: degrade to crow-fly
	}
	v := r.NearestNode(b)
	d := geo.Equirectangular(a, r.g.Point(u)) + geo.Equirectangular(b, r.g.Point(v))
	if u != v {
		d += r.routeNodes(int32(u), int32(v))
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
	hubSnap := r.Snap(hub)
	snaps := make([]geo.Snap, len(pts))
	for i, p := range pts {
		snaps[i] = r.Snap(p)
		if snaps[i].P != p || int(snaps[i].Node) != r.NearestNode(p) {
			t.Fatalf("%s: Snap(%v) = %+v, NearestNode = %d", label, p, snaps[i], r.NearestNode(p))
		}
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

// snapTestRouters builds one router per kernel over the 12x14 test
// grid: hub labels, the live-search fallback, and ALT.
func snapTestRouters(t testing.TB) (map[string]*Router, GridConfig) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 12, 14
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	routers := map[string]*Router{
		"ch":          NewRouterAlgo(g, cfg.Box, 0, AlgoCH),
		"ch-nolabels": NewRouterAlgo(g, cfg.Box, 0, AlgoCH),
		"alt":         NewRouterAlgo(g, cfg.Box, 0, AlgoALT),
	}
	h := routers["ch-nolabels"].ch
	h.labOffF, h.labOffB, h.labF, h.labB = nil, nil, nil, nil
	return routers, cfg
}

// TestSnappedFormsMatchReference is the contract of the snapped
// endpoint forms: DistSnapped, both snapped batch kernels and the
// point-form wrappers all return, bit for bit, what the pre-snap Dist
// body returns — over random pairs inside and outside the snap box,
// coincident points, points sharing a nearest node (u == v), points
// sitting on nodes, an empty graph, and every routing kernel. A batch
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
		empty := NewRouterAlgo(&Graph{}, box, 0, algo)
		if s := empty.Snap(box.Center()); s.Node != -1 || s.AccessKm != 0 {
			t.Fatalf("empty graph (%s): Snap = %+v, want node -1 and no access leg", algo, s)
		}
		pts := routerTestPoints(box, 8, 2)
		checkFormsAgainstRef(t, "empty graph "+algo.String(), empty, box.Lerp(0.4, 1.3), pts)
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

// FuzzRouterDist throws arbitrary valid point pairs at every kernel:
// the distance must be finite, never below crow-fly (the admissibility
// the spatial pruning rail depends on), and bitwise the reference in
// every form — pair, snapped pair, and a batch of one in each shape.
func FuzzRouterDist(f *testing.F) {
	routers, cfg := snapTestRouters(f)
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
