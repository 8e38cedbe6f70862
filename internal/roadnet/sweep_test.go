package roadnet

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geo"
)

// sweep is the table's row sweep as it read on a binary heap, before the
// buckets: pop the least label, skip it if superseded, relax. It is kept
// as an oracle in its own right, one whose queue order is strict, for
// TestTableBuildAtAnyProcs to hold the bucket-swept table to.
func sweep(adj [][]halfEdge, src int32, dist []float64, h *chHeap) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	*h = append((*h)[:0], chHeapItem{node: src})
	for len(*h) > 0 {
		it := h.pop()
		if it.dist != dist[it.node] {
			continue
		}
		for _, e := range adj[it.node] {
			if nd := it.dist + e.km; nd < dist[e.to] {
				dist[e.to] = nd
				h.push(chHeapItem{dist: nd, node: e.to})
			}
		}
	}
}

// sweepEdge is one edge of a FuzzSweep input: tail, head and the length
// code fuzzGraph reads.
type sweepEdge struct {
	u, v byte
	code uint16
}

// sweepInput encodes a graph of n nodes for fuzzGraph.
func sweepInput(n byte, edges ...sweepEdge) []byte {
	data := []byte{n - 1}
	for _, e := range edges {
		data = binary.BigEndian.AppendUint16(append(data, e.u, e.v), e.code)
	}
	return data
}

// fuzzGraph reads a directed graph of data[0]%64+1 nodes, all at one
// point, and an edge for each four bytes after: tail and head (each mod
// n), then a big-endian length code whose top four bits e (mod 10) and
// twelve low bits m give (1+m/4096)·10^(e-6) km, capped at 1e3 — from
// 1e-6 to 1e3 km.
func fuzzGraph(data []byte) *Graph {
	g := &Graph{}
	if len(data) == 0 {
		return g
	}
	n := int(data[0])%64 + 1
	for range n {
		g.AddNode(geo.Point{})
	}
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		code := binary.BigEndian.Uint16(data[2:])
		km := math.Min((1+float64(code&0xfff)/4096)*math.Pow10(int(code>>12)%10-6), 1e3)
		g.AddEdge(int(data[0])%n, int(data[1])%n, km)
	}
	return g
}

// checkSweeps holds every row the buckets sweep on g — DistancesFrom,
// DistancesTo and the all-pairs table, whose workers reuse one queue
// from row to row — bitwise to Graph.ShortestPath over g, or over its
// transpose for DistancesTo, whose folds run from the destination.
func checkSweeps(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumNodes()
	tr := &Graph{}
	for range n {
		tr.AddNode(geo.Point{})
	}
	for u, es := range g.adj {
		for _, e := range es {
			tr.AddEdge(int(e.to), u, e.km)
		}
	}
	table := fillTable(g.adj, n, func() {})
	for u := range n {
		from, to := g.DistancesFrom(u), g.DistancesTo(u)
		for v := range n {
			want, _ := g.ShortestPath(u, v)
			wantTo, _ := tr.ShortestPath(u, v)
			for _, c := range []struct {
				form      string
				got, want float64
			}{
				{"DistancesFrom", from[v], want},
				{"table", table[u*n+v], want},
				{"DistancesTo", to[v], wantTo},
			} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("%s(%d)[%d] = %v, ShortestPath = %v", c.form, u, v, c.got, c.want)
				}
			}
		}
	}
}

// FuzzSweep holds the bucket sweep to plain Dijkstra on arbitrary small
// directed graphs, edges from 1e-6 to 1e3 km: a least edge under a 64th
// of the greatest raises the buckets' width above it, so labels fall
// within an open bucket; a long path wraps the ring; and a one-way edge
// leaves pairs at +Inf.
func FuzzSweep(f *testing.F) {
	const (
		um   = 0x0000 // 1e-6 km
		km1  = 0x6000 // 1 km
		km1h = 0x6800 // 1.5 km
		km1k = 0x9000 // 1e3 km
	)
	// coincident: two nodes a 1e-6 km edge apart, as AddRoad joins
	// coincident nodes, beside 1 km streets: the buckets are a 64th of
	// 1.5 km wide, so both ends of the short edge share the open bucket.
	f.Add(sweepInput(5,
		sweepEdge{0, 1, um}, sweepEdge{1, 0, um},
		sweepEdge{0, 2, km1}, sweepEdge{2, 0, km1}, sweepEdge{1, 3, km1}, sweepEdge{3, 1, km1},
		sweepEdge{2, 4, km1}, sweepEdge{4, 2, km1}, sweepEdge{3, 4, km1}, sweepEdge{4, 3, km1},
		sweepEdge{1, 2, km1h}))
	// oneWay: 0 reaches 1 and 2 by one-way edges and nothing reaches 0.
	f.Add(sweepInput(3, sweepEdge{0, 1, km1}, sweepEdge{1, 2, km1h}, sweepEdge{2, 1, km1}))
	// ratio: a chain of 1 km links with 1e3 km edges beside them, a
	// ratio of 1 000: the width is a 64th of 1e3 km, and the 1e3 km
	// chain's labels wrap the ring many times over.
	ratio := []sweepEdge{}
	for u := byte(0); u < 20; u++ {
		ratio = append(ratio, sweepEdge{u, u + 1, km1k}, sweepEdge{u + 1, u, km1})
	}
	f.Add(sweepInput(21, append(ratio, sweepEdge{0, 20, km1k}, sweepEdge{20, 10, km1k})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSweeps(t, fuzzGraph(data))
	})
}

// TestSweepSubnormalEdges: edges far below any road's, where 1/Δ would
// overflow to +Inf unclamped (and int(+Inf) is whatever the machine
// makes of it), keep a finite bucket scale and still sweep to plain
// Dijkstra's labels.
func TestSweepSubnormalEdges(t *testing.T) {
	g := &Graph{}
	for range 4 {
		g.AddNode(geo.Point{})
	}
	for _, e := range []struct {
		u, v int
		km   float64
	}{{0, 1, 5e-324}, {1, 2, 1e-310}, {0, 2, 2e-310}, {2, 3, 3e-320}, {3, 0, 1e-312}} {
		g.AddEdge(e.u, e.v, e.km)
	}
	if scale := newSweeper(g.adj).scale; math.IsInf(scale, 0) {
		t.Fatalf("bucket scale %v", scale)
	}
	checkSweeps(t, g)
}
