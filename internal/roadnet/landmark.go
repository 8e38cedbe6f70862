package roadnet

import (
	"math"

	"repro/internal/geo"
)

// This file implements ALT ("A*, Landmarks, Triangle inequality")
// lower bounds. A landmark L with precomputed shortest-path distances
// to and from every node yields, by the triangle inequality,
//
//	d(u, t) ≥ d(L, t) − d(L, u)   and   d(u, t) ≥ d(u, L) − d(t, L),
//
// both consistent heuristics for A*. The maximum over a handful of
// well-spread landmarks (and the straight-line bound) is consistent in
// turn, so A* with it returns exactly the Dijkstra distance while
// settling far fewer nodes — the win grows with graph size because the
// landmark bound, unlike straight-line distance, already prices in the
// network's circuity.

// Landmarks holds the precomputed ALT distance tables for one graph.
// Construct with NewLandmarks; the zero value yields no bound.
type Landmarks struct {
	ids []int
	fwd [][]float64 // fwd[i][v] = d(ids[i] → v)
	rev [][]float64 // rev[i][v] = d(v → ids[i])
}

// SelectLandmarks picks k well-spread landmark nodes by farthest-point
// sampling under the network metric: start from node 0, then repeatedly
// add the node farthest from the set chosen so far. Deterministic; k is
// clamped to the node count.
func (g *Graph) SelectLandmarks(k int) []int {
	n := g.NumNodes()
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		return nil
	}
	ids := []int{0}
	minDist := g.DistancesFrom(0)
	for len(ids) < k {
		next, far := -1, -1.0
		for v := 0; v < n; v++ {
			d := minDist[v]
			if math.IsInf(d, 1) {
				continue // unreachable nodes make useless landmarks
			}
			if d > far {
				next, far = v, d
			}
		}
		if next < 0 || far == 0 {
			break // every reachable node already is a landmark
		}
		ids = append(ids, next)
		for v, d := range g.DistancesFrom(next) {
			if d < minDist[v] {
				minDist[v] = d
			}
		}
	}
	return ids
}

// NewLandmarks precomputes forward and reverse shortest-path distance
// tables from each landmark (two Dijkstra sweeps per landmark).
func NewLandmarks(g *Graph, ids []int) *Landmarks {
	l := &Landmarks{ids: append([]int(nil), ids...)}
	for _, id := range l.ids {
		l.fwd = append(l.fwd, g.DistancesFrom(id))
		l.rev = append(l.rev, g.DistancesTo(id))
	}
	return l
}

// NumLandmarks returns the landmark count.
func (l *Landmarks) NumLandmarks() int { return len(l.ids) }

// LowerBound returns the ALT lower bound on d(u, t): the best triangle
// bound over all landmarks, never negative. Non-finite table entries
// (unreachable nodes) are skipped, so the bound stays admissible on
// graphs that are not strongly connected.
func (l *Landmarks) LowerBound(u, t int) float64 {
	var best float64
	for i := range l.ids {
		if b := l.fwd[i][t] - l.fwd[i][u]; b > best && !math.IsInf(l.fwd[i][u], 1) {
			best = b
		}
		if b := l.rev[i][u] - l.rev[i][t]; b > best && !math.IsInf(l.rev[i][t], 1) {
			best = b
		}
	}
	return best
}

// DistancesTo runs a full single-destination Dijkstra (Dijkstra on the
// transposed graph) and returns the distance from every node to dst
// (+Inf where dst is unreachable). With AddRoad's two-way streets it
// equals DistancesFrom; it differs only on graphs with one-way edges.
func (g *Graph) DistancesTo(dst int) []float64 {
	if dst < 0 || dst >= len(g.pts) {
		panic("roadnet: destination out of range")
	}
	dist := make([]float64, len(g.pts))
	newSweeper(transpose(g.adj)).sweep(int32(dst), dist)
	return dist
}

// AStarALT runs A* with the ALT landmark heuristic combined (by max)
// with the straight-line bound. Results equal ShortestPath exactly —
// the heuristic is consistent — it just settles fewer nodes than the
// straight-line heuristic alone. lm must not be nil.
func (g *Graph) AStarALT(lm *Landmarks, src, dst int) (float64, []int) {
	target := g.pts[dst]
	return g.route(src, dst, func(n int32) float64 {
		h := lm.LowerBound(int(n), dst)
		if sl := geo.Equirectangular(g.pts[n], target); sl > h {
			h = sl
		}
		return h
	})
}
