package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geo"
)

// This file drives the index with arbitrary operation sequences —
// Add/Remove/Move (with a known HomeKm and Node or none, or a HomeKm
// across the layers' boundary)/SetSpan/SetHome/Grow/Expire/Load, one
// layer or two, interleaved with the four
// query forms, the deadlines of the window queries going up and down —
// against a brute-force twin that keeps only the id arrays and answers
// every query by scanning them. The index must return exactly the twin's
// set — in ascending id order from the three forms that answer with ids,
// cell by cell outwards from the cursor — carry every payload as the
// twin has it, and stay structurally sound after every step.
// The sequence is decoded from bytes, so the same interpreter serves the
// seeded property test and the native fuzz target.

// opsGrid is deliberately smaller than the region points and queries are
// drawn from, so clamping into boundary cells is always in play.
var (
	opsGridBox = geo.BoundingBox{MinLat: 41.14, MinLon: -8.64, MaxLat: 41.20, MaxLon: -8.56}
	opsRegion  = geo.BoundingBox{MinLat: 41.10, MinLon: -8.70, MaxLat: 41.24, MaxLon: -8.50}
)

// twin is the brute-force model: the state of every id, nothing else.
type twin struct {
	loc          []geo.Point
	free, retire []float64
	present      []bool
	// The payload: home is what SetHome was last given since the id was
	// added (a point of NaNs before), homeKm and node what the last Add,
	// Move or Load gave.
	home   []geo.Point
	homeKm []float64
	node   []int32
}

var nowhere = geo.Point{Lat: math.NaN(), Lon: math.NaN()}

func (m *twin) grow() {
	m.loc = append(m.loc, geo.Point{})
	m.free = append(m.free, math.Inf(-1))
	m.retire = append(m.retire, math.Inf(1))
	m.present = append(m.present, false)
	m.home = append(m.home, nowhere)
	m.homeKm = append(m.homeKm, math.NaN())
	m.node = append(m.node, -1)
}

// sameFloat is ==, with NaN equal to NaN.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// payload checks that e carries id's payload as the twin has it.
func (m *twin) payload(ix *Index, e Entry) error {
	hx, hy := ix.Project(m.home[e.ID])
	if !sameFloat(e.HomeX, hx) || !sameFloat(e.HomeY, hy) || !sameFloat(e.HomeKm, m.homeKm[e.ID]) || e.Node != m.node[e.ID] {
		return fmt.Errorf("id %d: payload (%g,%g) %g node %d, twin (%g,%g) %g node %d",
			e.ID, e.HomeX, e.HomeY, e.HomeKm, e.Node, hx, hy, m.homeKm[e.ID], m.node[e.ID])
	}
	return nil
}

// reachable is AppendReachable by definition: every present id, in id
// order, through the documented predicate.
func (m *twin) reachable(ix *Index, p geo.Point, speedKmh, byTime, now, minRetire float64) []int {
	var out []int
	if speedKmh <= 0 || byTime < now {
		return out
	}
	qx, qy := ix.Project(p)
	for id := range m.loc {
		if !m.present[id] || m.retire[id] < minRetire {
			continue
		}
		depart := m.free[id]
		if depart < now {
			depart = now
		}
		if depart > byTime {
			continue
		}
		budgetKm := speedKmh * (byTime - depart) / 3600 / Safety
		px, py := ix.Project(m.loc[id])
		if dx, dy := px-qx, py-qy; dx*dx+dy*dy <= budgetKm*budgetKm {
			out = append(out, id)
		}
	}
	return out
}

// walk is the same query through a Cursor, returned sorted: every entry
// of every cell the cursor hands out goes through Reach, so the ids it
// accepts must be reachable's whichever cells the caller then treats as
// skipped. On the way it holds the cursor to its promises — no cell
// twice, rings outwards across both layers, RingKm the ring's bound in
// the cell's layer, LayerHomeKm the layer's ceiling, every entry in the
// cell it is handed out for with the twin's payload under the cell's
// aggregate and the layer's ceiling, Reach's distance the planar one —
// and plays the caller's part on the cells it does not skip (every
// skipEvery-th is, none at 0): it reports the cell's maximum HomeKm back.
// With stopEvery it plays a caller that stops a layer: every stopEvery-th
// cell, none at 0, ends the walk of its layer, and the ids of the cells
// left are not asked for; the layers not stopped must still come out
// whole.
func (m *twin) walk(t testing.TB, ix *Index, p geo.Point, speedKmh, byTime, now, minRetire float64, skipEvery, stopEvery int) (got, want []int) {
	t.Helper()
	var stopped [2]bool
	near := ix.grid.NumCells()
	qx, qy := ix.Project(p)
	seen := map[int32]bool{}
	lastRingKm, n := 0.0, 0
	for c := ix.Reachable(p, speedKmh, byTime, now, minRetire); c.Next(); n++ {
		ents := c.Entries()
		if len(ents) == 0 {
			t.Fatalf("cursor stopped at a cell with nothing to scan")
		}
		at := ix.cell[ents[0].ID]
		if seen[at] {
			t.Fatalf("cursor came to cell %d twice", at)
		}
		seen[at] = true
		grid, cell, spanKm, ceiling := ix.grid, int(at), ix.minSpanKm, ix.nearKm
		layer := 0
		if cell >= near {
			grid, cell, spanKm, ceiling, layer = ix.far, cell-near, ix.farSpanKm, math.Inf(1), 1
		}
		if stopped[layer] {
			t.Fatalf("cell %d of a stopped layer", at)
		}
		center, cols := grid.CellOf(p), grid.Cols
		ring := max(abs(cell/cols-center/cols), abs(cell%cols-center%cols))
		if want := Safety * float64(max(ring-1, 0)) * spanKm; c.RingKm() != want || c.RingKm() < lastRingKm {
			t.Fatalf("cell %d, %d rings from cell %d of its layer: RingKm %g after %g, want %g", at, ring, center, c.RingKm(), lastRingKm, want)
		}
		if c.LayerHomeKm() != ceiling {
			t.Fatalf("cell %d: LayerHomeKm %g, want %g", at, c.LayerHomeKm(), ceiling)
		}
		lastRingKm = c.RingKm()
		skip := skipEvery > 0 && n%skipEvery == 0
		maxHome := math.Inf(-1)
		for k := range ents {
			en := &ents[k]
			if ix.cell[en.ID] != at {
				t.Fatalf("id %d of cell %d handed out with cell %d", en.ID, ix.cell[en.ID], at)
			}
			if err := m.payload(ix, *en); err != nil {
				t.Fatal(err)
			}
			if !(c.MaxHomeKm() >= orInf(en.HomeKm)) || !(c.LayerHomeKm() >= orInf(en.HomeKm)) {
				t.Fatalf("id %d: HomeKm %g above MaxHomeKm %g or LayerHomeKm %g", en.ID, en.HomeKm, c.MaxHomeKm(), c.LayerHomeKm())
			}
			if distSq, ok := c.Reach(en); ok {
				if dx, dy := en.PX-qx, en.PY-qy; distSq != dx*dx+dy*dy {
					t.Fatalf("id %d: Reach says %g km², the planar distance squared is %g", en.ID, distSq, dx*dx+dy*dy)
				}
				got = append(got, int(en.ID))
			}
			maxHome = max(maxHome, en.HomeKm) // NaN once any is
		}
		if !skip {
			c.Tighten(maxHome)
		}
		if stopEvery > 0 && n%stopEvery == stopEvery-1 {
			c.Stop()
			stopped[layer] = true
		}
	}
	slices.Sort(got)
	for _, id := range m.reachable(ix, p, speedKmh, byTime, now, minRetire) {
		if c := ix.cell[id]; seen[c] || !stopped[min(int(c)/near, 1)] {
			want = append(want, id)
		}
	}
	return got, want
}

func abs(x int) int { return max(x, -x) }

// checkInvariants verifies the structure the queries rely on: every
// present id sits in the cell of its location at its recorded slot with
// the twin's payload, and the region that slot lies in is one the twin's
// window allows under the two clocks — parked beyond the horizon, or the
// cell's header says it is due; live with the header under its RetireAt
// and over its HomeKm (an unknown one counting as +Inf); expired below
// the watermark. Every cell's boundaries are in order, every entry of it
// points back at its slot, a sorted parked region is in wake order, and
// no query left a mark behind.
func checkInvariants(ix *Index, m *twin) error {
	members := 0
	for id := range ix.loc {
		c := ix.cell[id]
		if (c != absentCell) != m.present[id] {
			return fmt.Errorf("id %d: present=%v in the twin, cell %d in the index", id, m.present[id], c)
		}
		if ix.freeAt[id] != m.free[id] || ix.retireAt[id] != m.retire[id] {
			return fmt.Errorf("id %d: window (%g,%g), twin (%g,%g)", id, ix.freeAt[id], ix.retireAt[id], m.free[id], m.retire[id])
		}
		if c == absentCell {
			continue
		}
		members++
		want := int32(ix.grid.CellOf(m.loc[id]))
		if orInf(m.homeKm[id]) > ix.nearKm {
			want = int32(ix.grid.NumCells() + ix.far.CellOf(m.loc[id]))
		}
		if c != want {
			return fmt.Errorf("id %d: with HomeKm %g against h₀ %g in cell %d, belongs in cell %d", id, m.homeKm[id], ix.nearKm, c, want)
		}
		cl := &ix.cells[c]
		slot := ix.slot[id]
		if int(slot) >= len(cl.ents) || cl.ents[slot].ID != int32(id) {
			return fmt.Errorf("id %d: slot %d of cell %d does not hold it", id, slot, c)
		}
		e := cl.ents[slot]
		px, py := ix.Project(m.loc[id])
		if e.PX != px || e.PY != py || e.FreeAt != m.free[id] || e.RetireAt != m.retire[id] {
			return fmt.Errorf("id %d: entry %+v is stale", id, e)
		}
		if err := m.payload(ix, e); err != nil {
			return err
		}
		switch {
		case slot < cl.park:
			if !(cl.wakeAt <= m.free[id]) {
				return fmt.Errorf("id %d: parked with freeAt %g under its cell's wakeAt %g", id, m.free[id], cl.wakeAt)
			}
			if m.free[id] <= ix.horizon && !ix.behind(cl) {
				return fmt.Errorf("id %d: parked with freeAt %g under horizon %g in a cell that is not behind", id, m.free[id], ix.horizon)
			}
		case slot < cl.live:
			if !(m.free[id] <= ix.horizon) {
				return fmt.Errorf("id %d: live with freeAt %g beyond horizon %g", id, m.free[id], ix.horizon)
			}
			if !(cl.expireAt <= m.retire[id]) {
				return fmt.Errorf("id %d: live with retireAt %g under its cell's expireAt %g", id, m.retire[id], cl.expireAt)
			}
			if !(cl.maxHomeKm >= orInf(e.HomeKm)) {
				return fmt.Errorf("id %d: HomeKm %g above its cell's aggregate %g", id, e.HomeKm, cl.maxHomeKm)
			}
		default:
			if !(m.retire[id] < ix.watermark) {
				return fmt.Errorf("id %d: expired with retireAt %g under watermark %g", id, m.retire[id], ix.watermark)
			}
		}
	}
	if members != ix.members {
		return fmt.Errorf("Members() = %d, %d present", ix.members, members)
	}
	if cells := ix.grid.NumCells(); ix.far != nil {
		if ix.far.Box != ix.grid.Box || ix.far.NumCells() > cells || len(ix.cells) != cells+ix.far.NumCells() || math.IsInf(ix.nearKm, 0) {
			return fmt.Errorf("far layer %+v beside the near %+v, %d cells in all, h₀ %g", *ix.far, *ix.grid, len(ix.cells), ix.nearKm)
		}
	} else if len(ix.cells) != cells || !math.IsInf(ix.nearKm, 1) {
		return fmt.Errorf("one layer of %d cells with %d cells in all, h₀ %g", cells, len(ix.cells), ix.nearKm)
	}
	for c := range ix.cells {
		cl := &ix.cells[c]
		if cl.park < 0 || cl.park > cl.live || int(cl.live) > len(cl.ents) {
			return fmt.Errorf("cell %d: boundaries %d, %d over %d entries", c, cl.park, cl.live, len(cl.ents))
		}
		members -= len(cl.ents)
		for i, e := range cl.ents {
			if ix.cell[e.ID] != int32(c) || ix.slot[e.ID] != int32(i) {
				return fmt.Errorf("cell %d slot %d holds id %d, which is recorded in cell %d slot %d", c, i, e.ID, ix.cell[e.ID], ix.slot[e.ID])
			}
			if cl.sorted && 0 < i && i < int(cl.park) && cl.ents[i-1].FreeAt < e.FreeAt {
				return fmt.Errorf("cell %d: sorted parked region wakes %g at slot %d after %g", c, e.FreeAt, i, cl.ents[i-1].FreeAt)
			}
		}
	}
	if members != 0 {
		return fmt.Errorf("the cells hold %d entries more or fewer than there are members", -members)
	}
	for w, word := range ix.marks {
		if word != 0 {
			return fmt.Errorf("mark word %d left at %#x", w, word)
		}
	}
	return nil
}

// opReader hands out the bytes of an op sequence; it yields zeros once
// the sequence is spent, and done() ends the run.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) done() bool { return r.pos >= len(r.data) }

func (r *opReader) byte() byte {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *opReader) point() geo.Point {
	return opsRegion.Lerp(float64(r.byte())/255, float64(r.byte())/255)
}

// time maps a byte to a time of day on a 40-second lattice, with both
// infinities reachable so open-ended and collapsed windows show up.
func (r *opReader) time() float64 {
	switch b := r.byte(); b {
	case 0:
		return math.Inf(-1)
	case 255:
		return math.Inf(1)
	default:
		return float64(b) * 40
	}
}

// runIndexOps interprets data as an op sequence over a fresh index and
// its twin, failing on the first disagreement. With expire false the
// Expire op is skipped: an index never told the time must be exact too.
// It returns the index's counters at the end.
func runIndexOps(t testing.TB, data []byte, expire bool) Stats {
	const startIDs, maxIDs = 24, 70 // crosses a bitmap word boundary by growing
	r := &opReader{data: data}
	ix := NewSparseIndex(geo.NewGrid(opsGridBox, 1+int(r.byte()%9), 1+int(r.byte()%9)), startIDs)
	m := &twin{}
	for i := 0; i < startIDs; i++ {
		m.grow()
	}
	equal := func(op string, got, want []int) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("op %d (%s): index %v, brute force %v", r.pos, op, got, want)
		}
	}
	for !r.done() {
		op := r.byte() % 15
		id := int(r.byte()) % len(m.loc)
		switch op {
		case 0, 1: // place: Add when absent, Move when present; 1 with a known HomeKm and Node
			p, homeKm, node := r.point(), math.NaN(), int32(-1)
			if op == 1 {
				homeKm, node = float64(r.byte()), int32(r.byte())
			}
			if m.present[id] {
				ix.Move(id, p, homeKm, node)
			} else {
				ix.Add(id, p, homeKm, node)
				m.home[id] = nowhere
			}
			m.loc[id], m.present[id], m.homeKm[id], m.node[id] = p, true, homeKm, node
			if ix.Location(id) != p || !ix.Contains(id) {
				t.Fatalf("op %d: id %d not at %v after placing it", r.pos, id, p)
			}
		case 2:
			if m.present[id] {
				ix.Remove(id)
				m.present[id] = false
			}
		case 3, 4: // any id, present or not: the window outlives membership
			m.free[id], m.retire[id] = r.time(), r.time()
			ix.SetSpan(id, m.free[id], m.retire[id])
		case 5:
			if now := r.time(); expire {
				ix.Expire(now)
			}
		case 6:
			if len(m.loc) < maxIDs {
				if got := ix.Grow(); got != len(m.loc) {
					t.Fatalf("op %d: Grow returned %d, want %d", r.pos, got, len(m.loc))
				}
				m.grow()
			}
		case 7: // window query, callback form
			p, speed, byTime, now, minRetire := r.point(), float64(r.byte()%90), r.time(), r.time(), r.time()
			var got []int
			ix.NearReachable(p, speed, byTime, now, minRetire, func(id int) { got = append(got, id) })
			equal("NearReachable", got, m.reachable(ix, p, speed, byTime, now, minRetire))
		case 8: // window query, ascending form, appended behind a sentinel
			p, speed, byTime, now, minRetire := r.point(), float64(r.byte()%90), r.time(), r.time(), r.time()
			got := ix.AppendReachable([]int{-7}, p, speed, byTime, now, minRetire)
			equal("AppendReachable", got, append([]int{-7}, m.reachable(ix, p, speed, byTime, now, minRetire)...))
		case 9: // window query reaching radius km from time 0, every retirement let through: a negative radius is refused
			p, radius := r.point(), float64(r.byte())/8-1
			got := ix.AppendReachable(nil, p, 3600, radius, 0, math.Inf(-1))
			equal("AppendReachable", got, m.reachable(ix, p, 3600, radius, 0, math.Inf(-1)))
		case 10: // window query, cursor form
			p, speed, byTime, now, minRetire := r.point(), float64(r.byte()%90), r.time(), r.time(), r.time()
			b := r.byte()
			got, want := m.walk(t, ix, p, speed, byTime, now, minRetire, int(b%4), int(b/4%4))
			equal("Reachable", got, want)
		case 11: // the payload's static half, whenever: it is the caller's
			if m.present[id] {
				m.home[id] = r.point()
				ix.SetHome(id, m.home[id])
			}
		case 12, 13: // reload: every id out, then all of them in at once, where the twin last had each; 13 in two layers
			fill := float64(r.byte())
			for id := range m.loc {
				if m.present[id] {
					ix.Remove(id)
				}
				m.present[id], m.homeKm[id], m.node[id] = true, fill+float64(id), int32(fill)+int32(id)
				if op == 13 { // ways home of 0 to 19 km, and one in 23 unknown: some of either beyond h₀
					m.homeKm[id] = float64((id*7 + int(fill)) % 20)
				}
				if op == 12 && (id+int(fill))%3 == 0 || op == 13 && (id+int(fill))%23 == 0 {
					m.homeKm[id], m.node[id] = math.NaN(), -1
				}
			}
			ix.Load(func(id int) (geo.Point, geo.Point, float64, int32) {
				return m.loc[id], m.home[id], m.homeKm[id], m.node[id]
			}, op == 13)
		case 14: // carry a way home across the layers' boundary, either way, at the same spot: to h₀ itself, past it, or unknown
			if m.present[id] {
				homeKm := ix.nearKm
				if b := r.byte(); orInf(m.homeKm[id]) <= ix.nearKm {
					homeKm = []float64{math.Nextafter(ix.nearKm, math.Inf(1)), math.NaN()}[b%2]
				}
				ix.Move(id, m.loc[id], homeKm, m.node[id])
				m.homeKm[id] = homeKm
			}
		}
		if ix.Len() != len(m.loc) {
			t.Fatalf("op %d: Len() = %d, want %d", r.pos, ix.Len(), len(m.loc))
		}
		if err := checkInvariants(ix, m); err != nil {
			t.Fatalf("op %d (kind %d, id %d): %v", r.pos, op, id, err)
		}
	}
	return ix.Stats()
}

// TestIndexOpsMatchBruteForce is the property test: seeded random op
// sequences, with and without Expire in them.
func TestIndexOpsMatchBruteForce(t *testing.T) {
	for _, expire := range []bool{true, false} {
		t.Run(fmt.Sprintf("expire=%v", expire), func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			for seq := 0; seq < 150; seq++ {
				data := make([]byte, 40+rng.Intn(1500))
				rng.Read(data)
				runIndexOps(t, data, expire)
			}
		})
	}
}

// seq writes an op sequence for runIndexOps by hand: times are lattice
// bytes (t × 40 s; 0 and 255 the infinities), points two bytes each.
type seq []byte

func newSeq(rows, cols byte) *seq { return &seq{rows - 1, cols - 1} }

func (s *seq) op(b ...byte) *seq { *s = append(*s, b...); return s }

func (s *seq) place(id, lat, lon byte) *seq    { return s.op(0, id, lat, lon) }
func (s *seq) remove(id byte) *seq             { return s.op(2, id) }
func (s *seq) span(id, free, retire byte) *seq { return s.op(3, id, free, retire) }
func (s *seq) expire(now byte) *seq            { return s.op(5, 0, now) }
func (s *seq) reload(fill byte) *seq           { return s.op(12, 0, fill) }
func (s *seq) layered(fill byte) *seq          { return s.op(13, 0, fill) }
func (s *seq) cross(id, how byte) *seq         { return s.op(14, id, how) }
func (s *seq) grow() *seq                      { return s.op(6, 0) }
func (s *seq) placeKm(id, lat, lon, km byte) *seq {
	return s.op(1, id, lat, lon, km, 0)
}

// askStopping is ask's cursor form alone, stopping a layer at every
// cell it comes to.
func (s *seq) askStopping(byTime, now byte) *seq {
	return s.op(10, 0, 128, 128, 89, byTime, now, now, 4)
}

// ask puts one query through all three window forms, at top speed from
// the middle of the region, with minRetire at now.
func (s *seq) ask(byTime, now byte) *seq {
	for _, form := range []byte{7, 8} {
		s.op(form, 0, 128, 128, 89, byTime, now, now)
	}
	return s.op(10, 0, 128, 128, 89, byTime, now, now, 0)
}

// namedSeeds are the situations the per-cell agenda has and the heaps
// had not, each with the counters a run of it must end on.
var namedSeeds = []struct {
	name string
	ops  *seq
	want Stats
}{
	// 1 is parked until 4 000 s and retires at 2 000 s; the clock passes
	// that while she is parked, and the query that wakes her finds her
	// expired already. 0 and 2 are live beside her.
	{"expiredWhileParked", newSeq(1, 1).
		span(1, 100, 50).place(0, 128, 128).place(1, 128, 128).place(2, 120, 130).
		ask(20, 10).expire(60).ask(70, 61).ask(110, 61).span(1, 100, 200).ask(120, 61),
		Stats{Expired: 1}},
	// Five in one cell wake at 4 000 s and two at 4 800 s. A deadline
	// short of them all leaves the cell alone; the first that reaches them
	// sorts seven entries with two keys between them and wakes five; one
	// more parks on the tie and both groups wake in turn.
	{"equalFreeAtAcrossSort", newSeq(1, 1).
		span(0, 100, 250).span(1, 100, 250).span(2, 120, 250).span(3, 100, 250).
		span(4, 100, 250).span(5, 120, 250).span(6, 100, 250).
		place(0, 128, 128).place(1, 128, 128).place(2, 128, 128).place(3, 128, 128).
		place(4, 128, 128).place(5, 128, 128).place(6, 128, 128).
		ask(90, 80).ask(100, 80).span(7, 120, 250).place(7, 128, 128).span(3, 120, 250).
		ask(110, 80).ask(120, 80),
		Stats{Woken: 9, Sorts: 1, Shifted: 0}},
	// A sorted cell: 4 wakes and is locked again until a time in the
	// middle of the others, which shifts the two that wake before her;
	// then 2 is removed from the middle, which closes the gap over three.
	{"reparkThenRemoveMiddle", newSeq(2, 1).
		span(0, 100, 250).span(1, 120, 250).span(2, 140, 250).span(3, 160, 250).span(4, 50, 250).
		place(0, 128, 128).place(1, 128, 128).place(2, 128, 128).place(3, 128, 128).place(4, 128, 128).
		ask(60, 55).span(4, 130, 250).remove(2).ask(125, 55).ask(200, 55),
		Stats{Woken: 5, Sorts: 1, Shifted: 5}},
	// A deadline of +Inf puts every cell with something parked behind at
	// once; what is left parked is 2, free at +Inf, whom no query accepts.
	// Nothing finite can park again. Ordinary queries follow.
	{"infiniteHorizon", newSeq(3, 3).
		span(0, 100, 250).span(1, 200, 255).span(2, 255, 255).span(3, 150, 120).span(6, 180, 255).
		place(0, 10, 10).place(1, 128, 128).place(2, 250, 250).place(3, 128, 10).place(4, 10, 250).place(6, 128, 128).
		ask(60, 55).ask(255, 55).span(5, 240, 255).place(5, 128, 128).span(0, 254, 250).
		expire(130).ask(140, 131).ask(245, 131).span(2, 255, 255),
		Stats{Woken: 4, Expired: 1, Sorts: 1}},
	// Every id loaded at once into one cell, four of them locked (until
	// 4 000, 4 800, 2 000 and 6 000 s) and parked in wake order by Load,
	// the other twenty live; 5 was placed before and goes out and back in.
	// The first query wakes two without a sort; 4 is then locked until
	// 5 200 s and parks past the one of the two left that wakes before
	// her; the last query wakes the three.
	{"loadedInWakeOrder", newSeq(1, 1).
		span(0, 100, 250).span(1, 120, 250).span(2, 50, 250).span(3, 150, 250).
		place(5, 128, 128).reload(7).
		ask(110, 55).span(4, 130, 250).ask(200, 55),
		Stats{Woken: 5, Shifted: 1}},
	// A Load in two layers (h₀ 18 km; 14, at 19 km, and 22, unknown,
	// beyond it), then near entries carried across h₀ into the far layer:
	// 3, parked, and 4, from h₀ itself, to just past it at the query's
	// spot, and 5 to an unknown way home far from it — between queries
	// that stop a layer at its first cell and ones that walk both to the
	// end. The last query wakes 3 in her far cell.
	{"crossUp", newSeq(4, 4).
		layered(1).placeKm(3, 128, 128, 2).placeKm(4, 128, 128, 18).ask(100, 0).
		span(3, 120, 250).cross(3, 0).cross(4, 0).askStopping(100, 0).cross(5, 1).ask(100, 0).askStopping(255, 0),
		Stats{Woken: 1}},
	// The other way: the far entries of a Load — 14, parked, at 19 km and
	// 22, unknown — brought down to h₀ itself, which is near; 9, who
	// retires at 2 400 s, sent up and back down and then expired; a
	// query after each.
	{"crossDown", newSeq(4, 4).
		layered(1).ask(100, 0).span(14, 120, 250).cross(14, 0).cross(22, 0).span(9, 0, 60).cross(9, 0).askStopping(100, 0).
		cross(9, 0).expire(70).ask(255, 70),
		Stats{Woken: 1, Expired: 1}},
	// Unknown ways home on a layered index: a driver added again with
	// none goes to the far layer, and so do a newcomer and a near entry
	// moved with none; a reload in one layer takes everyone back to the
	// near one.
	{"nanHome", newSeq(3, 3).
		grow().layered(2).ask(100, 0).remove(6).place(6, 128, 128).place(24, 130, 126).place(7, 128, 128).
		askStopping(100, 0).reload(3).ask(100, 0),
		Stats{}},
}

// TestNamedSeeds runs them with the clock live, as the fuzzer's corpus
// does, and holds each to the transitions it was written to make.
func TestNamedSeeds(t *testing.T) {
	for _, seed := range namedSeeds {
		if got := runIndexOps(t, *seed.ops, true); got != seed.want {
			t.Errorf("%s: %+v, want %+v", seed.name, got, seed.want)
		}
	}
}

// FuzzIndexOps is the same interpreter under the native fuzzer; the
// first byte after the grid dimensions' decides whether Expire is live.
func FuzzIndexOps(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 16, 200, 900} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data, true)
		f.Add(data, false)
	}
	for _, seed := range namedSeeds {
		f.Add([]byte(*seed.ops), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, expire bool) {
		if len(data) > 4096 {
			return
		}
		runIndexOps(t, data, expire)
	})
}

// TestSetSpanReopens pins the two transitions a day depends on: a point
// the clock expired, and one a long lock parked, are back in the very
// next query once SetSpan gives them a window that admits it.
func TestSetSpanReopens(t *testing.T) {
	p := geo.PortoBox.Center()
	ix := NewIndex(geo.NewGrid(geo.PortoBox, 4, 4), []geo.Point{p, p})
	query := func(byTime, now float64) []int {
		return ix.AppendReachable(nil, p, 30, byTime, now, now)
	}
	ix.SetSpan(0, 0, 100)     // retires at 100
	ix.SetSpan(1, 5000, 9000) // locked until 5000
	if got := query(60, 50); !slices.Equal(got, []int{0}) {
		t.Fatalf("at 50: %v, want [0]", got)
	}
	ix.Expire(200)
	if got := query(260, 250); len(got) != 0 {
		t.Fatalf("at 250: %v, want none", got)
	}
	// That query settled their cell: 0, whom the first one woke, left the
	// live range, and 1 has yet to enter it.
	if st := ix.Stats(); st.Woken != 1 || st.Expired != 1 {
		t.Fatalf("%+v after Expire(200) and a query, want 0 woken and expired and 1 neither", st)
	}
	// A query below the watermark still sees the expired point.
	if got := ix.AppendReachable(nil, p, 30, 60, 50, 50); !slices.Equal(got, []int{0}) {
		t.Fatalf("at 50 after Expire(200): %v, want [0]", got)
	}
	ix.SetSpan(0, 0, 400)   // shift extended
	ix.SetSpan(1, 240, 900) // ride cancelled, free again
	if got := query(260, 250); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("at 250 after re-opening: %v, want [0 1]", got)
	}
}

// TestQueriesDoNotAllocate: waking is a boundary stepping over sorted
// entries, expiry a swap inside a cell and the one sort a cell ever gets
// is in place, so a warm index answers without touching the allocator,
// whatever the query raises.
func TestQueriesDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := randomPoints(rng, 4000, geo.PortoBox)
	ix := NewSparseIndex(geo.NewGrid(geo.PortoBox, 40, 40), len(pts))
	for id, p := range pts {
		start := rng.Float64() * 80000
		ix.SetSpan(id, start, start+6000)
		ix.Add(id, p, math.NaN(), -1)
	}
	buf := make([]int, 0, len(pts))
	now := 0.0
	allocs := testing.AllocsPerRun(200, func() {
		now += 400
		ix.Expire(now)
		buf = ix.AppendReachable(buf[:0], pts[int(now)%len(pts)], 60, now+600, now, now)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per query", allocs)
	}
	if st := ix.Stats(); st.Woken < 1000 || st.Expired < 1000 || st.Sorts < 100 {
		t.Fatalf("the run counted %+v; it was meant to wake, expire and sort plenty", st)
	}
}

// TestLayerMigrationsDoNotAllocate: Load gives a near cell room for
// every point of its area and a far cell cellReserve more than it holds,
// so from the first crossing on, an entry whose way home crosses h₀
// where it stands, and a window change on it, touch no allocator: every
// far entry into the near layer at once, and the near ones into the far
// layer one at a time.
func TestLayerMigrationsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randomPoints(rng, 400, geo.PortoBox)
	ix := NewSparseIndex(geo.NewGrid(geo.PortoBox, 14, 14), len(pts))
	ix.Load(func(id int) (geo.Point, geo.Point, float64, int32) { return pts[id], nowhere, float64(id % 20), -1 }, true)
	if ix.NearKm() != 17 || ix.Far(0) || !ix.Far(19) {
		t.Fatalf("h₀ %g over ways home 0 to 19 km, twenty of each; want 17, id 0 near and id 19 far", ix.NearKm())
	}
	cross := func(id int, homeKm float64) {
		ix.Move(id, pts[id], homeKm, -1)
		if ix.Far(id) != (homeKm > 17) {
			t.Fatalf("id %d with way home %g km in the wrong layer", id, homeKm)
		}
		ix.SetSpan(id, float64(id), float64(id+1000))
		ix.SetSpan(id, math.Inf(1), math.Inf(-1))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, by := range []float64{-10, 0} { // down, then home again
		for id := range pts {
			if home := float64(id % 20); home > 17 {
				cross(id, home+by)
			}
		}
	}
	for id := range pts {
		if home := float64(id % 20); home <= 17 {
			cross(id, home+10)
			cross(id, home)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations over %d crossings", n, 2*len(pts))
	}
}
