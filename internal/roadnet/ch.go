package roadnet

import "math"

// This file implements contraction hierarchies (Geisberger et al.): a
// preprocessing pass contracts nodes one by one in edge-difference
// order, inserting shortcut arcs that preserve shortest-path distances
// among the remaining nodes, and queries become two small *upward*
// Dijkstra searches — forward from the source and backward from the
// target, both only ever climbing toward higher-ranked nodes — that
// meet at the highest node of some shortest path. The upward search
// spaces are tiny compared to plain Dijkstra's, which is what replaces
// the per-pair ALT A* in Router.nodeDist, and the structure batches
// naturally: one-to-many queries share one half of the search (the
// shared endpoint's full upward cone doubles as the bucket array the
// per-target searches scan), so an order's distances to all its
// candidate drivers cost one search plus a small probe per driver.
//
// A hierarchy only ever serves graphs too large for the Router's
// all-pairs table, so it has one query path per shape: queryPTP is the
// bidirectional point-to-point search, and the batches are
// an exhaustive search on the shared side (chSide.exhaust) probed once
// per pair from the other side (chSide.probe). The two directions are
// one search over one side type: a forward side climbs Hierarchy.fwd
// from the source, a backward side Hierarchy.bwd from the target, and
// every search takes whichever it is handed.
//
// Bit-identity discipline: the rest of the repository asserts that
// every routing kernel returns distances bitwise equal to Dijkstra's.
// Dijkstra accumulates edge weights left-associatively in path order
// (dist[v] = dist[u] + w), while a CH search sums shortcut weights —
// the same magnitudes grouped differently, which IEEE float addition
// does not forgive. Queries therefore never return the search's own
// sum: they unpack the winning up-down path's shortcuts back to the
// original edge sequence and re-accumulate the edge weights in path
// order, reproducing Dijkstra's float operations exactly (for unique
// shortest paths, which the generators' jittered weights make the only
// realistic case — the same assumption the ALT differential tests
// already rely on). The CH weights only steer the search.

// chArc is one arc of the contracted graph: every original directed
// edge plus every shortcut. Shortcuts remember the two arcs they
// replaced (left: from→mid, right: mid→to) so unpacking is a walk down
// a binary tree whose leaves are original edges.
type chArc struct {
	from, to    int32
	km          float64
	left, right int32 // child arc indices; -1/-1 on original edges
}

// chRef is one adjacency entry of the upward search graphs.
type chRef struct {
	node int32
	arc  int32
	km   float64
}

// Hierarchy is the preprocessed contraction hierarchy for one graph.
// Build with BuildHierarchy; it is immutable data after that, and every
// search writes only the chScratch it is handed, so any number of
// searches may read one hierarchy at once, each on scratch of its own.
// A Router builds one scratch with its hierarchy and searches on it
// under its mutex.
type Hierarchy struct {
	rank      []int32 // node -> contraction order (0 = contracted first)
	arcs      []chArc
	shortcuts int

	// The two upward search graphs: fwd holds arcs u→w with rank[w] >
	// rank[u] keyed by u; bwd holds arcs u→w with rank[u] > rank[w] keyed
	// by w.
	fwd, bwd chGraph
}

// chGraph is one upward search graph in CSR layout (offset + flat ref
// arrays), so the search's inner loop scans contiguous memory instead of
// chasing per-node slice headers.
type chGraph struct {
	off []int32
	ref []chRef
}

// at returns node x's upward adjacency slice.
func (g *chGraph) at(x int32) []chRef { return g.ref[g.off[x]:g.off[x+1]] }

// witnessSettleCap bounds each witness search during preprocessing. An
// inconclusive search just inserts a (possibly redundant) shortcut,
// which costs query time but never correctness, so the cap only trades
// preprocessing speed against hierarchy sparsity.
const witnessSettleCap = 256

// chHeapItem / chHeap implement the priority queue of the hierarchy's
// searches and of route (ShortestPath, AStarALT) only — sweeper files its
// items in buckets — without container/heap's interface boxing. Ties
// break on node id so every search settles nodes in a deterministic order.
type chHeapItem struct {
	dist float64
	node int32
}

type chHeap []chHeapItem

func chLess(a, b chHeapItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

// push and pop sift a hole rather than swap: the moving item is written
// once, where it comes to rest. chLess is a total order, so the sequence
// of items popped does not depend on how the array is arranged.
func (h *chHeap) push(it chHeapItem) {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !chLess(it, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
}

func (h *chHeap) pop() chHeapItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	*h = q[:n]
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && chLess(q[c+1], q[c]) {
			c++
		}
		if !chLess(q[c], last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// chBuilder is the mutable preprocessing state: the "core" graph of
// not-yet-contracted nodes, maintained as in/out lists of arc indices
// (stale entries pointing at contracted endpoints are skipped lazily).
type chBuilder struct {
	arcs       []chArc
	out, in    [][]int32 // node -> arc indices (u→·) / (·→w)
	contracted []bool
	deleted    []int32 // contracted-neighbor count, for priorities
	level      []int32 // hop-depth bound: 1 + max level of contracted neighbors

	// witness-search scratch (epoch-stamped so clears are O(touched))
	wdist []float64
	wlab  []uint32
	wdone []uint32
	wep   uint32
	wheap chHeap

	// neighbor-dedup scratch for the deleted-neighbor update
	nbSeen []uint32
	nbEp   uint32
}

// BuildHierarchy preprocesses g into a contraction hierarchy. The pass
// is deterministic: priorities are integers, every tie breaks on node
// id, and arc insertion order is fixed, so two builds of the same graph
// produce identical hierarchies.
func BuildHierarchy(g *Graph) *Hierarchy {
	n := g.NumNodes()
	b := &chBuilder{
		out:        make([][]int32, n),
		in:         make([][]int32, n),
		contracted: make([]bool, n),
		deleted:    make([]int32, n),
		level:      make([]int32, n),
		wdist:      make([]float64, n),
		wlab:       make([]uint32, n),
		wdone:      make([]uint32, n),
		nbSeen:     make([]uint32, n),
	}
	for u := 0; u < n; u++ {
		for _, e := range g.adj[u] {
			idx := int32(len(b.arcs))
			b.arcs = append(b.arcs, chArc{from: int32(u), to: e.to, km: e.km, left: -1, right: -1})
			b.out[u] = append(b.out[u], idx)
			b.in[e.to] = append(b.in[e.to], idx)
		}
	}

	// Lazy edge-difference ordering: pop the cheapest node, recompute
	// its priority (contractions elsewhere may have changed it), and
	// contract only if it still beats the queue's next candidate.
	var q chHeap
	for v := int32(0); v < int32(n); v++ {
		sc, rm := b.contract(v, false)
		q.push(chHeapItem{dist: b.priority(v, sc, rm), node: v})
	}
	h := &Hierarchy{rank: make([]int32, n), shortcuts: 0}
	order := int32(0)
	for len(q) > 0 {
		it := q.pop()
		v := it.node
		if b.contracted[v] {
			continue // stale duplicate entry
		}
		sc, rm := b.contract(v, false)
		prio := b.priority(v, sc, rm)
		if len(q) > 0 && prio > q[0].dist {
			q.push(chHeapItem{dist: prio, node: v})
			continue
		}
		added, _ := b.contract(v, true)
		h.shortcuts += added
		b.markContracted(v)
		h.rank[v] = order
		order++
	}

	h.arcs = b.arcs
	// Every arc climbs one way: u→w is forward from u when w ranks above
	// u, else backward from w. Two counting passes lay out both graphs
	// with each node's refs in arc-index order (deterministic, the order
	// appends would give).
	climb := func(idx int) (g *chGraph, key int32, ref chRef) {
		a := &h.arcs[idx]
		if h.rank[a.from] < h.rank[a.to] {
			return &h.fwd, a.from, chRef{node: a.to, arc: int32(idx), km: a.km}
		}
		return &h.bwd, a.to, chRef{node: a.from, arc: int32(idx), km: a.km}
	}
	graphs := []*chGraph{&h.fwd, &h.bwd}
	for _, g := range graphs {
		g.off = make([]int32, n+1)
	}
	for idx := range h.arcs {
		g, key, _ := climb(idx)
		g.off[key+1]++
	}
	for _, g := range graphs {
		for i := 0; i < n; i++ {
			g.off[i+1] += g.off[i]
		}
		g.ref = make([]chRef, g.off[n])
	}
	for idx := range h.arcs {
		g, key, ref := climb(idx)
		g.ref[g.off[key]] = ref
		g.off[key]++ // key's start walks to its end: key+1's start
	}
	for _, g := range graphs {
		copy(g.off[1:], g.off[:n]) // every start one slot back
		g.off[0] = 0
	}
	return h
}

// NumShortcuts returns the number of shortcut arcs the preprocessing
// inserted (for stats, benches and tests).
func (h *Hierarchy) NumShortcuts() int { return h.shortcuts }

// Rank returns node id's contraction order (for determinism tests).
func (h *Hierarchy) Rank(id int) int { return int(h.rank[id]) }

// priority scores node v for the contraction order: the edge
// difference (shortcuts added minus arcs removed) dominates, with
// contracted-neighbor and hop-depth terms spreading contraction evenly
// across the graph — the depth term is what keeps upward search cones
// shallow, and with it query search spaces stay near-logarithmic.
func (b *chBuilder) priority(v int32, shortcuts, removed int) float64 {
	// The integer terms produce huge tie groups (every interior grid
	// node starts identical), and breaking ties by node id would
	// contract spatially sequential waves of adjacent nodes — long
	// shortcut chains, deep hierarchies, linear-size query cones. A
	// sub-integer hash jitter keeps the order deterministic while
	// scattering each tie group uniformly across the graph.
	jitter := float64(uint32(v)*2654435761) * (1.0 / (1 << 40))
	return float64(2*(shortcuts-removed)) + float64(b.deleted[v]) + float64(b.level[v]) + jitter
}

// contract simulates (apply=false) or performs (apply=true) the
// contraction of v: for every in-neighbor u and out-neighbor w still in
// the core, a shortcut u→w of weight km(u→v)+km(v→w) is needed unless a
// witness path of at most that weight avoids v. It returns the number
// of shortcuts needed/added and the number of core arcs contraction
// removes (the edge-difference terms).
func (b *chBuilder) contract(v int32, apply bool) (shortcuts, removed int) {
	for _, ai := range b.in[v] {
		if b.contracted[b.arcs[ai].from] {
			continue
		}
		removed++
	}
	for _, ai := range b.out[v] {
		if b.contracted[b.arcs[ai].to] {
			continue
		}
		removed++
	}
	for _, ai := range b.in[v] {
		u := b.arcs[ai].from
		if b.contracted[u] {
			continue
		}
		inKm := b.arcs[ai].km
		// Bound the witness search by the largest shortcut this u would
		// need; paths longer than that can never refute one.
		maxKm := -1.0
		for _, ao := range b.out[v] {
			w := b.arcs[ao].to
			if b.contracted[w] || w == u {
				continue
			}
			if d := inKm + b.arcs[ao].km; d > maxKm {
				maxKm = d
			}
		}
		if maxKm < 0 {
			continue // no out-neighbor other than u survives
		}
		b.witnessSearch(u, v, maxKm)
		for _, ao := range b.out[v] {
			w := b.arcs[ao].to
			if b.contracted[w] || w == u {
				continue
			}
			need := inKm + b.arcs[ao].km
			if b.wdone[w] == b.wep && b.wdist[w] <= need {
				continue // witness avoids v at no extra cost
			}
			shortcuts++
			if apply {
				idx := int32(len(b.arcs))
				b.arcs = append(b.arcs, chArc{from: u, to: w, km: need, left: ai, right: ao})
				b.out[u] = append(b.out[u], idx)
				b.in[w] = append(b.in[w], idx)
			}
		}
	}
	return shortcuts, removed
}

// witnessSearch runs a bounded Dijkstra from u over the core graph with
// v removed. Settled distances land in b.wdist under epoch b.wep; the
// search stops once the frontier exceeds maxKm or the settle cap.
func (b *chBuilder) witnessSearch(u, v int32, maxKm float64) {
	b.wep++
	b.wheap = b.wheap[:0]
	b.wdist[u] = 0
	b.wlab[u] = b.wep
	b.wheap.push(chHeapItem{dist: 0, node: u})
	settled := 0
	for len(b.wheap) > 0 {
		it := b.wheap.pop()
		x := it.node
		if b.wdone[x] == b.wep {
			continue
		}
		if b.wdist[x] > maxKm {
			break
		}
		b.wdone[x] = b.wep
		if settled++; settled > witnessSettleCap {
			break
		}
		for _, ai := range b.out[x] {
			a := &b.arcs[ai]
			if a.to == v || b.contracted[a.to] {
				continue
			}
			nd := b.wdist[x] + a.km
			if b.wlab[a.to] != b.wep || nd < b.wdist[a.to] {
				b.wlab[a.to] = b.wep
				b.wdist[a.to] = nd
				b.wheap.push(chHeapItem{dist: nd, node: a.to})
			}
		}
	}
}

// markContracted retires v from the core and bumps the deleted-neighbor
// counter of every surviving neighbor (each unique neighbor once).
func (b *chBuilder) markContracted(v int32) {
	b.contracted[v] = true
	b.nbEp++
	bump := func(n int32) {
		if !b.contracted[n] && b.nbSeen[n] != b.nbEp {
			b.nbSeen[n] = b.nbEp
			b.deleted[n]++
			if b.level[n] < b.level[v]+1 {
				b.level[n] = b.level[v] + 1
			}
		}
	}
	for _, ai := range b.in[v] {
		bump(b.arcs[ai].from)
	}
	for _, ai := range b.out[v] {
		bump(b.arcs[ai].to)
	}
}

// chScratch is one query's working set: the forward side (f, climbing
// Hierarchy.fwd from the source) and the backward side (b, climbing
// Hierarchy.bwd from the target), plus the unpacking buffers: all that
// a search writes, so searches on scratch of their own may run at once.
type chScratch struct {
	f, b  chSide
	chain []int32 // parent-walk buffer (arc indices)
	stack []int32 // shortcut-expansion stack
}

// chSide is one upward search: epoch-stamped labels (lab: reached, done:
// settled) with distance and parent arc per node, its queue, and the
// upward graph it climbs. dist[x] is the CH weight of the best up-path
// from the side's source to x — for a backward side, of the best
// down-path x → target.
type chSide struct {
	up   chGraph
	dist []float64
	par  []int32
	lab  []uint32
	done []uint32
	ep   uint32
	heap chHeap
}

func newCHScratch(h *Hierarchy) *chScratch {
	n := len(h.rank)
	side := func(up chGraph) chSide {
		return chSide{up: up, dist: make([]float64, n), par: make([]int32, n),
			lab: make([]uint32, n), done: make([]uint32, n)}
	}
	return &chScratch{f: side(h.fwd), b: side(h.bwd)}
}

// start opens a new search from src under a fresh epoch.
func (s *chSide) start(src int32) {
	s.ep++
	s.heap = s.heap[:0]
	s.dist[src] = 0
	s.par[src] = -1
	s.lab[src] = s.ep
	s.heap.push(chHeapItem{dist: 0, node: src})
}

// relax labels x's upward neighbours through x wherever that improves
// them, and queues those whose new key is below limit.
func (s *chSide) relax(x int32, limit float64) {
	// Locals, because a push writes through s and the compiler would
	// reload every field after it. dist[x] holds still: an upward arc
	// never returns to x.
	dist, lab, par, ep := s.dist, s.lab, s.par, s.ep
	dx := dist[x]
	for _, e := range s.up.at(x) {
		nd := dx + e.km
		if lab[e.node] != ep || nd < dist[e.node] {
			lab[e.node] = ep
			dist[e.node] = nd
			par[e.node] = e.arc
			if nd < limit {
				s.heap.push(chHeapItem{dist: nd, node: e.node})
			}
		}
	}
}

// exhaust runs the upward search from src to exhaustion, recording
// distance and parent arc for every settled node. The settled set is
// the "bucket" side of a batch: the other side's probes scan it by
// array lookup.
func (s *chSide) exhaust(src int32) {
	s.start(src)
	for len(s.heap) > 0 {
		x := s.heap.pop().node
		if s.done[x] == s.ep {
			continue
		}
		s.done[x] = s.ep
		s.relax(x, math.Inf(1))
	}
}

// probe runs the upward search from src against other, which exhaust
// has prepared, and returns the node where the best meeting path turns
// (-1 when the cones never meet). other is only read, so it serves the
// batch's next probe as it stands.
func (s *chSide) probe(other *chSide, src int32) (meet int32) {
	s.start(src)
	best := math.Inf(1)
	meet = -1
	for len(s.heap) > 0 {
		x := s.heap.pop().node
		if s.done[x] == s.ep {
			continue
		}
		s.done[x] = s.ep
		if s.dist[x] >= best {
			break // keys only grow; no later meet can improve
		}
		if other.done[x] == other.ep {
			if cand := s.dist[x] + other.dist[x]; cand < best {
				best = cand
				meet = x
			}
		}
		s.relax(x, math.Inf(1))
	}
	return meet
}

// unpack walks the winning up-down path through meet, expands every
// shortcut to its original edges, and re-accumulates the edge weights
// left-associatively in path order — the float operations Dijkstra
// itself would have performed along this path. A meet of -1 is +Inf.
func (h *Hierarchy) unpack(sc *chScratch, meet int32) float64 {
	if meet < 0 {
		return math.Inf(1)
	}
	// Forward half: the parent walk discovers arcs tip-first, so stage
	// them and fold in reverse (source → meet order).
	sc.chain = sc.chain[:0]
	for a := sc.f.par[meet]; a >= 0; a = sc.f.par[h.arcs[a].from] {
		sc.chain = append(sc.chain, a)
	}
	d := 0.0
	for i := len(sc.chain) - 1; i >= 0; i-- {
		d = h.foldArc(sc, sc.chain[i], d)
	}
	// Backward half: the parent walk already runs meet → target.
	for a := sc.b.par[meet]; a >= 0; a = sc.b.par[h.arcs[a].to] {
		d = h.foldArc(sc, a, d)
	}
	return d
}

// foldArc adds arc a's original edge weights to the running sum in path
// order, expanding shortcuts depth-first (left child before right).
func (h *Hierarchy) foldArc(sc *chScratch, a int32, d float64) float64 {
	sc.stack = append(sc.stack[:0], a)
	for len(sc.stack) > 0 {
		top := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		arc := &h.arcs[top]
		if arc.left < 0 {
			d += arc.km
		} else {
			sc.stack = append(sc.stack, arc.right, arc.left) // left pops first
		}
	}
	return d
}

// queryPTP returns the shortest-path distance from u to v on sc, bitwise
// equal to Graph.ShortestPath's (0 when u is v). It is the point-to-point
// kernel: both upward searches run interleaved (strictly alternating,
// for determinism, and on the side that still has a queue once one runs
// dry) and each stops as soon as its next key cannot beat the best
// meeting found — unlike a batch, neither side runs to exhaustion, and
// keys at or above best are never queued. Meeting checks use the other
// side's tentative label; tentative values only overestimate, so best
// stays achievable and the optimal meet is re-checked with final values
// when its second settle lands. The winning path is unpacked and
// re-accumulated like every other query.
func (h *Hierarchy) queryPTP(sc *chScratch, u, v int32) float64 {
	sc.f.start(u)
	sc.b.start(v)
	best := math.Inf(1)
	meet := int32(-1)
	turn, next := &sc.f, &sc.b
	for len(turn.heap) > 0 || len(next.heap) > 0 {
		s, other := turn, next
		if len(s.heap) == 0 {
			s, other = other, s
		}
		turn, next = next, turn
		x := s.heap.pop().node
		if s.done[x] == s.ep {
			continue
		}
		if s.dist[x] >= best {
			s.heap = s.heap[:0] // this side is exhausted
			continue
		}
		s.done[x] = s.ep
		if other.lab[x] == other.ep {
			if cand := s.dist[x] + other.dist[x]; cand < best {
				best = cand
				meet = x
			}
		}
		s.relax(x, best)
	}
	return h.unpack(sc, meet)
}
