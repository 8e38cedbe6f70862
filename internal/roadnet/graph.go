// Package roadnet provides a street-network routing substrate for the
// market framework. The paper estimates inter-task travel distances from
// trip trajectories; straight-line distance understates urban driving
// distance by the network's circuity (~1.2–1.4× in practice). This
// package supplies weighted road graphs, shortest-path routing
// (Dijkstra and A* on a binary heap, whole-graph sweeps on a bucket
// queue), synthetic city-network generators, and a Router —
// an all-pairs distance table on city-sized graphs, cached kernels above
// them — that plugs into model.Market.Dist so every cost and travel-time
// estimate in the framework can be network-accurate instead of
// crow-fly.
package roadnet

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/geo"
)

// halfEdge is one directed adjacency entry.
type halfEdge struct {
	to int32
	km float64
}

// Graph is a directed weighted road network embedded in the plane.
// Nodes carry geographic positions; edge weights are kilometers. The
// zero value is an empty graph ready for AddNode/AddEdge.
type Graph struct {
	pts []geo.Point
	adj [][]halfEdge

	edgeCount int
}

// NumNodes returns the node count; NumEdges the directed edge count.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// Point returns the position of node id.
func (g *Graph) Point(id int) geo.Point { return g.pts[id] }

// AddNode appends a node at p and returns its id.
func (g *Graph) AddNode(p geo.Point) int {
	g.pts = append(g.pts, p)
	g.adj = append(g.adj, nil)
	return len(g.pts) - 1
}

// AddEdge inserts the directed edge u→v with the given length. A
// non-positive or non-finite length, or an out-of-range endpoint,
// panics: edges come from generators, not user input.
func (g *Graph) AddEdge(u, v int, km float64) {
	if u < 0 || u >= len(g.pts) || v < 0 || v >= len(g.pts) {
		panic(fmt.Sprintf("roadnet: edge (%d,%d) out of range [0,%d)", u, v, len(g.pts)))
	}
	if km <= 0 || math.IsNaN(km) || math.IsInf(km, 0) {
		panic(fmt.Sprintf("roadnet: bad edge length %g", km))
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: int32(v), km: km})
	g.edgeCount++
}

// AddRoad inserts the two-way road u↔v with length equal to the
// straight-line distance between the endpoints scaled by factor.
func (g *Graph) AddRoad(u, v int, factor float64) {
	km := geo.Equirectangular(g.pts[u], g.pts[v]) * factor
	if km <= 0 {
		km = 1e-6 // coincident nodes: keep the metric positive
	}
	g.AddEdge(u, v, km)
	g.AddEdge(v, u, km)
}

// ShortestPath runs Dijkstra from src to dst and returns the distance
// in kilometers and the node sequence. It returns +Inf and nil when dst
// is unreachable.
func (g *Graph) ShortestPath(src, dst int) (float64, []int) {
	return g.route(src, dst, nil)
}

// route is the shared Dijkstra/A* core; h == nil means Dijkstra.
func (g *Graph) route(src, dst int, h func(int32) float64) (float64, []int) {
	if src < 0 || src >= len(g.pts) || dst < 0 || dst >= len(g.pts) {
		panic(fmt.Sprintf("roadnet: route (%d,%d) out of range [0,%d)", src, dst, len(g.pts)))
	}
	n := len(g.pts)
	dist := make([]float64, n)
	prev := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0

	q := chHeap{{node: int32(src)}}
	if h != nil {
		q[0].dist = h(int32(src))
	}
	for len(q) > 0 {
		u := q.pop().node
		if done[u] {
			continue
		}
		done[u] = true
		if int(u) == dst {
			break
		}
		for _, e := range g.adj[u] {
			if done[e.to] {
				continue
			}
			nd := dist[u] + e.km
			if nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = u
				key := nd
				if h != nil {
					key += h(e.to)
				}
				q.push(chHeapItem{dist: key, node: e.to})
			}
		}
	}

	if math.IsInf(dist[dst], 1) {
		return math.Inf(1), nil
	}
	var path []int
	for v := int32(dst); v != -1; v = prev[v] {
		path = append(path, int(v))
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return dist[dst], path
}

// DistancesFrom runs a full single-source Dijkstra and returns the
// distance to every node (+Inf where unreachable). Used by the landmark
// selection and tables; the Router's table runs the same sweep per row.
func (g *Graph) DistancesFrom(src int) []float64 {
	if src < 0 || src >= len(g.pts) {
		panic(fmt.Sprintf("roadnet: source %d out of range [0,%d)", src, len(g.pts)))
	}
	dist := make([]float64, len(g.pts))
	newSweeper(g.adj).sweep(int32(src), dist)
	return dist
}

// sweeper is the package's one single-source Dijkstra body and its queue,
// a ring of buckets (Dial's, with Δ-stepping's width): Δ is the least edge
// raised to at least a 64th of the greatest, and a label d is filed in
// bucket int(d·(1/Δ)) at slot bucket&(len(ring)-1). A label relaxed from
// bucket b lands at most ⌈greatest/Δ⌉+1 buckets on, so a ring of
// ⌈greatest/Δ⌉+3 slots, rounded up to a power of two, never files two live
// buckets in one slot; no label exceeds (n-1)·greatest, so no bucket
// exceeds 64·n. One sweeper serves every row of an adjacency.
type sweeper struct {
	adj   [][]halfEdge
	ring  [][]chHeapItem
	scale float64 // 1/Δ
}

func newSweeper(adj [][]halfEdge) *sweeper {
	least, most := math.Inf(1), 0.0
	for _, es := range adj {
		for _, e := range es {
			least, most = math.Min(least, e.km), math.Max(most, e.km)
		}
	}
	width := math.Max(math.Max(least, most/64), 0x1p-1022) // 1/width finite
	k := 1 << bits.Len(uint(math.Ceil(most/width))+2)
	return &sweeper{adj: adj, ring: make([][]chHeapItem, k), scale: 1 / width}
}

// sweep fills dist (one element per node) with the distance from src to
// every node, +Inf where unreachable, emptying the buckets in order and
// label-correcting within one: a superseded entry is skipped, and a node
// whose label falls into the open bucket is appended to it and scanned
// again. The labels are the least left folds over all paths whatever the
// order of the scans — each is some path's fold, and once no edge relaxes
// each is at most every path's — so DistancesFrom, DistancesTo, the
// landmark tables and the Router's table agree with route, which performs
// the same relaxation nd := dist[u] + e.km, bit for bit. As fl(d+w) >= d
// and floor(fl(d·(1/Δ))) is monotone in d, nothing is filed below the
// open bucket, and a closed bucket's labels are final.
func (s *sweeper) sweep(src int32, dist []float64) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	adj, ring, scale := s.adj, s.ring, s.scale
	mask := len(ring) - 1
	ring[0] = append(ring[0], chHeapItem{node: src})
	for b, last := 0, 0; b <= last; b++ {
		open := &ring[b&mask]
		for i := 0; i < len(*open); i++ {
			it := (*open)[i]
			if it.dist != dist[it.node] {
				continue // superseded by a shorter label
			}
			for _, e := range adj[it.node] {
				if nd := it.dist + e.km; nd < dist[e.to] {
					dist[e.to] = nd
					k := int(nd * scale)
					last = max(last, k)
					ring[k&mask] = append(ring[k&mask], chHeapItem{dist: nd, node: e.to})
				}
			}
		}
		*open = (*open)[:0]
	}
}

// StronglyConnected reports whether every node reaches every other:
// every node is reached from node 0 forward and on the transpose.
func (g *Graph) StronglyConnected() bool {
	if len(g.pts) == 0 {
		return true
	}
	return all(reachableFrom(g.adj, 0)) && all(reachableFrom(transpose(g.adj), 0))
}

// reachableFrom marks the nodes reachable from src along adj's edges.
func reachableFrom(adj [][]halfEdge, src int32) []bool {
	seen := make([]bool, len(adj))
	stack := []int32{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[u] {
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return seen
}

// all reports whether every element of seen is set.
func all(seen []bool) bool {
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// transpose returns adj with every edge reversed, each node's in-edges
// in the order their tails appear in adj.
func transpose(adj [][]halfEdge) [][]halfEdge {
	tr := make([][]halfEdge, len(adj))
	for u := range adj {
		for _, e := range adj[u] {
			tr[e.to] = append(tr[e.to], halfEdge{to: int32(u), km: e.km})
		}
	}
	return tr
}
