package roadnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
)

// cellOf is the cell whose list nearest reads for a point inside the box,
// found as nearest finds it.
func cellOf(r *Router, p geo.Point) int {
	box, rows, cols := r.grid.Box, r.grid.Rows, r.grid.Cols
	return min(int((p.Lat-box.MinLat)*r.rowScale), rows-1)*cols + min(int((p.Lon-box.MinLon)*r.colScale), cols-1)
}

// cellList is that cell's list.
func cellList(r *Router, p geo.Point) []int32 {
	c := cellOf(r, p)
	return r.lists[r.listAt[c]:r.listAt[c+1]]
}

// latOrder returns g's node ids sorted by latitude, for sweepNearest.
func latOrder(g *Graph) []int32 {
	order := make([]int32, g.NumNodes())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(g.pts[a].Lat, g.pts[b].Lat) })
	return order
}

// sweepNearest is what a scan of every node finds nearest p, the lowest
// id winning an exact tie, and its distance; -1 and +Inf on an empty
// graph. It takes the nodes outward from p's latitude (order is
// latOrder(g)) and stops on each side where the latitude leg alone
// exceeds the best distance: Equirectangular is R·hypot(x, y) with y that
// leg in radians, and math.Hypot(x, y) ≥ |y| in floats too, so no node
// beyond can win or tie. It shares nothing with the router but the graph.
func sweepNearest(g *Graph, order []int32, p geo.Point) (int32, float64) {
	best, bestD := int32(-1), math.Inf(1)
	from := sort.Search(len(order), func(i int) bool { return g.pts[order[i]].Lat >= p.Lat })
	side := func(i int) bool { // reports whether the sweep goes on past order[i]
		q := g.pts[order[i]]
		if geo.EarthRadiusKm*math.Abs((q.Lat-p.Lat)*math.Pi/180) > bestD {
			return false
		}
		if d := geo.Equirectangular(p, q); d < bestD || d == bestD && order[i] < best {
			best, bestD = order[i], d
		}
		return true
	}
	for i := from; i < len(order) && side(i); i++ {
	}
	for i := from - 1; i >= 0 && side(i); i-- {
	}
	return best, bestD
}

// snapProbes returns the points a snap is checked at on r: every corner of
// every cell of its snap grid with the eight points one ulp off it in
// latitude, longitude or both; the midpoint of every cell edge and the
// points one ulp either side of the edge; every node's own point; and
// points just and far outside each side of the box.
func snapProbes(r *Router) []geo.Point {
	box, rows, cols := r.grid.Box, r.grid.Rows, r.grid.Cols
	lat := func(f float64) float64 { return box.MinLat + (box.MaxLat-box.MinLat)*f/float64(rows) }
	lon := func(f float64) float64 { return box.MinLon + (box.MaxLon-box.MinLon)*f/float64(cols) }
	ulps := func(x float64) []float64 {
		return []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))}
	}
	var pts []geo.Point
	for i := 0; i <= rows; i++ {
		for j := 0; j <= cols; j++ {
			for _, la := range ulps(lat(float64(i))) {
				for _, lo := range ulps(lon(float64(j))) {
					pts = append(pts, geo.Point{Lat: la, Lon: lo})
				}
				if j < cols { // the edge eastward from the corner
					pts = append(pts, geo.Point{Lat: la, Lon: lon(float64(j) + 0.5)})
				}
			}
			if i < rows { // the edge northward from the corner
				for _, lo := range ulps(lon(float64(j))) {
					pts = append(pts, geo.Point{Lat: lat(float64(i) + 0.5), Lon: lo})
				}
			}
		}
	}
	pts = append(pts, r.g.pts...)
	for _, f := range []float64{0, 0.3, 0.5, 0.8, 1} {
		along := box.Lerp(f, f)
		for _, out := range []float64{0, 0.5, 30} {
			pts = append(pts,
				geo.Point{Lat: math.Nextafter(box.MinLat, -90) - out, Lon: along.Lon},
				geo.Point{Lat: math.Nextafter(box.MaxLat, 90) + out, Lon: along.Lon},
				geo.Point{Lat: along.Lat, Lon: math.Nextafter(box.MinLon, -180) - out},
				geo.Point{Lat: along.Lat, Lon: math.Nextafter(box.MaxLon, 180) + out},
			)
		}
	}
	return pts
}

// snapMismatch returns the first of pts at which r's Snap is not bitwise
// the reference — its node and access leg against sweepNearest's — and
// "" if there is none.
func snapMismatch(r *Router, pts []geo.Point) string {
	order := latOrder(r.g)
	for _, p := range pts {
		want, wantKm := sweepNearest(r.g, order, p)
		if want < 0 {
			wantKm = 0
		}
		if s := r.Snap(p); s.Node != want || math.Float64bits(s.AccessKm) != math.Float64bits(wantKm) {
			return fmt.Sprintf("Snap(%v) = node %d at %v km, a scan of every node finds %d at %v km", p, s.Node, s.AccessKm, want, wantKm)
		}
	}
	return ""
}

// tieGraph is two nodes joined by a road and mirrored about a corner of a
// 4×4 snap grid, west and east of it, the lower id in the cell west of
// the one the corner's own lookup reads: the corner is exactly as far
// from each, to the bit.
func tieGraph() (g *Graph, box geo.BoundingBox, corner geo.Point) {
	box = geo.BoundingBox{MinLat: 41, MinLon: -9, MaxLat: 41.5, MaxLon: -8}
	g = &Graph{}
	g.AddNode(geo.Point{Lat: 41.25, Lon: -8.5625})
	g.AddNode(geo.Point{Lat: 41.25, Lon: -8.4375})
	g.AddRoad(0, 1, 1.3)
	return g, box, geo.Point{Lat: 41.25, Lon: -8.5}
}

// TestSnapMatchesScan holds Snap, node and access leg, bitwise to a scan
// of every node at snapProbes' points: on the generated 20×24 (the
// default), 32×32 and 60×72 grids with the snap grid sized from the node
// count, on the 20×24 graph at explicit snap-grid dims 1, 3 and 10, on a
// built exact tie, and on the empty and the one-node graph. A list that
// misses one node fails it.
func TestSnapMatchesScan(t *testing.T) {
	generated := func(rows, cols, s int) *Router {
		cfg := DefaultGridConfig()
		cfg.Rows, cfg.Cols = rows, cols
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return NewRouterAlgo(g, cfg.Box, s, AlgoALT) // the snap is the same on every tier
	}
	tie, tieBox, corner := tieGraph()
	if dw, de := geo.Equirectangular(corner, tie.Point(0)), geo.Equirectangular(corner, tie.Point(1)); dw != de {
		t.Fatalf("tie layout broken: %v km west, %v km east", dw, de)
	}
	one := &Graph{}
	one.AddNode(geo.PortoBox.Lerp(0.3, 0.6))
	for name, r := range map[string]*Router{
		"20x24":       generated(20, 24, 0),
		"32x32":       generated(32, 32, 0),
		"60x72":       generated(60, 72, 0),
		"20x24 dim 1": generated(20, 24, 1),
		"20x24 dim 3": generated(20, 24, 3),
		"20x24 dim10": generated(20, 24, 10),
		"tie":         NewRouter(tie, tieBox, 4),
		"tie dim 8":   NewRouter(tie, tieBox, 8),
		"empty":       NewRouter(&Graph{}, geo.PortoBox, 0),
		"one node":    NewRouter(one, geo.PortoBox, 0),
	} {
		if msg := snapMismatch(r, snapProbes(r)); msg != "" {
			t.Errorf("%s (%dx%d snap grid): %s", name, r.grid.Rows, r.grid.Cols, msg)
		}
	}
	if got := NewRouter(tie, tieBox, 4).Snap(corner); got.Node != 0 {
		t.Errorf("tie: Snap(corner) = %+v, want the lower id 0", got)
	}
	// The reference is the full scan's answer.
	r := generated(20, 24, 0)
	order := latOrder(r.g)
	probes := snapProbes(r)
	for i := 0; i < len(probes); i += 13 {
		u, d := sweepNearest(r.g, order, probes[i])
		if want, wantD := bruteNearest(r.g, probes[i]); int(u) != want || d != wantD {
			t.Fatalf("sweepNearest(%v) = %d at %v km, bruteNearest %d at %v km", probes[i], u, d, want, wantD)
		}
	}

	// One node dropped from the list of its own cell: the check fails.
	const v = 137
	c := cellOf(r, r.g.pts[v])
	k := slices.Index(cellList(r, r.g.pts[v]), v)
	if k < 0 {
		t.Fatalf("node %d is not in the list of its own cell %d", v, c)
	}
	r.lists = slices.Delete(slices.Clone(r.lists), int(r.listAt[c])+k, int(r.listAt[c])+k+1)
	for i := c + 1; i < len(r.listAt); i++ {
		r.listAt[i]--
	}
	if snapMismatch(r, snapProbes(r)) == "" {
		t.Fatalf("a list of cell %d without node %d passed the check", c, v)
	}
}
