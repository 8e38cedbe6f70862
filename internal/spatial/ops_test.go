package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
)

// This file drives the index with arbitrary operation sequences —
// Add/Remove/Move/SetSpan/SetHome/Grow/Expire interleaved with the four
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
	// added (a point of NaNs before), homeKm what a cursor's caller last
	// wrote since the id was added or moved (NaN before).
	home   []geo.Point
	homeKm []float64
}

var nowhere = geo.Point{Lat: math.NaN(), Lon: math.NaN()}

func (m *twin) grow() {
	m.loc = append(m.loc, geo.Point{})
	m.free = append(m.free, math.Inf(-1))
	m.retire = append(m.retire, math.Inf(1))
	m.present = append(m.present, false)
	m.home = append(m.home, nowhere)
	m.homeKm = append(m.homeKm, math.NaN())
}

// sameFloat is ==, with NaN equal to NaN.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// payload checks that e carries id's payload as the twin has it.
func (m *twin) payload(ix *Index, e Entry) error {
	hx, hy := ix.Project(m.home[e.ID])
	if !sameFloat(e.HomeX, hx) || !sameFloat(e.HomeY, hy) || !sameFloat(e.HomeKm, m.homeKm[e.ID]) {
		return fmt.Errorf("id %d: payload (%g,%g) %g, twin (%g,%g) %g", e.ID, e.HomeX, e.HomeY, e.HomeKm, hx, hy, m.homeKm[e.ID])
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
// twice, rings outwards, RingKm the ring's bound, every entry in the
// cell it is handed out for with the twin's payload under the cell's
// aggregate, Reach's distance the planar one — and plays the caller's
// part on the cells it does not skip (every skipEvery-th is, none at 0):
// it fills in the HomeKm of about half the entries Reach passes and
// reports the cell's maximum back.
func (m *twin) walk(t testing.TB, ix *Index, p geo.Point, speedKmh, byTime, now, minRetire float64, skipEvery int, fill float64) []int {
	t.Helper()
	var got []int
	cols := ix.grid.Cols
	center := ix.grid.CellOf(p)
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
		ring := max(abs(int(at)/cols-center/cols), abs(int(at)%cols-center%cols))
		if want := Safety * float64(max(ring-1, 0)) * ix.minSpanKm; c.RingKm() != want || c.RingKm() < lastRingKm {
			t.Fatalf("cell %d, %d rings from cell %d: RingKm %g after %g, want %g", at, ring, center, c.RingKm(), lastRingKm, want)
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
			if !(c.MaxHomeKm() >= orInf(en.HomeKm)) {
				t.Fatalf("id %d: HomeKm %g above MaxHomeKm %g", en.ID, en.HomeKm, c.MaxHomeKm())
			}
			if distSq, ok := c.Reach(en); ok {
				if dx, dy := en.PX-qx, en.PY-qy; distSq != dx*dx+dy*dy {
					t.Fatalf("id %d: Reach says %g km², the planar distance squared is %g", en.ID, distSq, dx*dx+dy*dy)
				}
				got = append(got, int(en.ID))
				if !skip && en.HomeKm != en.HomeKm && (int(en.ID)+int(fill))%2 == 0 {
					en.HomeKm = fill + float64(en.ID)
					m.homeKm[en.ID] = en.HomeKm
				}
			}
			maxHome = max(maxHome, en.HomeKm) // NaN once any is
		}
		if !skip {
			c.Tighten(maxHome)
		}
	}
	slices.Sort(got)
	return got
}

func abs(x int) int { return max(x, -x) }

func (m *twin) near(ix *Index, p geo.Point, radiusKm float64) []int {
	var out []int
	if radiusKm < 0 {
		return out
	}
	qx, qy := ix.Project(p)
	limit := radiusKm / Safety
	for id := range m.loc {
		px, py := ix.Project(m.loc[id])
		if dx, dy := px-qx, py-qy; m.present[id] && dx*dx+dy*dy <= limit*limit {
			out = append(out, id)
		}
	}
	return out
}

// checkInvariants verifies the structure the queries rely on: every
// present id sits in the cell of its location at its recorded slot with
// the twin's payload, the live prefix of a cell holds exactly its live
// entries and the cell's aggregate is at least the HomeKm of each (an
// unknown one counting as +Inf), each state is the one the window
// dictates or a stale-but-safe one (parked ids the watermark passed stay
// parked until woken), both heaps are heaps with hpos in step, and no
// query left a mark behind.
func checkInvariants(ix *Index, m *twin) error {
	members, inWake, inExp := 0, 0, 0
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
		if want := int32(ix.grid.CellOf(m.loc[id])); c != want {
			return fmt.Errorf("id %d: in cell %d, located in cell %d", id, c, want)
		}
		cl := &ix.cells[c]
		slot := int(ix.slot[id])
		if slot >= len(cl.ents) || cl.ents[slot].ID != int32(id) {
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
		st := ix.state[id]
		if (st == stLive) != (slot < cl.live) {
			return fmt.Errorf("id %d: state %d at slot %d of a cell with %d live", id, st, slot, cl.live)
		}
		switch st {
		case stLive:
			inExp++
			if m.free[id] > ix.horizon || m.retire[id] < ix.watermark {
				return fmt.Errorf("id %d: live with window (%g,%g) under horizon %g, watermark %g", id, m.free[id], m.retire[id], ix.horizon, ix.watermark)
			}
			if ix.exp[ix.hpos[id]] != int32(id) {
				return fmt.Errorf("id %d: not at its place in the expiry queue", id)
			}
			if !(cl.maxHomeKm >= orInf(e.HomeKm)) {
				return fmt.Errorf("id %d: HomeKm %g above its cell's aggregate %g", id, e.HomeKm, cl.maxHomeKm)
			}
		case stParked:
			inWake++
			if !(m.free[id] > ix.horizon) {
				return fmt.Errorf("id %d: parked with freeAt %g under horizon %g", id, m.free[id], ix.horizon)
			}
			if ix.wake[ix.hpos[id]] != int32(id) {
				return fmt.Errorf("id %d: not at its place in the wake queue", id)
			}
		case stExpired:
			if !(m.retire[id] < ix.watermark) {
				return fmt.Errorf("id %d: expired with retireAt %g under watermark %g", id, m.retire[id], ix.watermark)
			}
		}
	}
	if members != ix.members {
		return fmt.Errorf("Members() = %d, %d present", ix.members, members)
	}
	if inWake != len(ix.wake) || inExp != len(ix.exp) {
		return fmt.Errorf("queues hold %d parked, %d live; states say %d, %d", len(ix.wake), len(ix.exp), inWake, inExp)
	}
	if cap(ix.wake) < len(ix.loc) || cap(ix.exp) < len(ix.loc) {
		return fmt.Errorf("queues reserved for %d and %d of %d ids", cap(ix.wake), cap(ix.exp), len(ix.loc))
	}
	for i := 1; i < len(ix.wake); i++ {
		if ix.freeAt[ix.wake[i]] < ix.freeAt[ix.wake[(i-1)/2]] {
			return fmt.Errorf("wake queue out of order at %d", i)
		}
	}
	for i := 1; i < len(ix.exp); i++ {
		if ix.retireAt[ix.exp[i]] < ix.retireAt[ix.exp[(i-1)/2]] {
			return fmt.Errorf("expiry queue out of order at %d", i)
		}
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
func runIndexOps(t testing.TB, data []byte, expire bool) {
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
		op := r.byte() % 12
		id := int(r.byte()) % len(m.loc)
		switch op {
		case 0, 1: // place: Add when absent, Move when present
			p := r.point()
			if m.present[id] {
				ix.Move(id, p)
			} else {
				ix.Add(id, p)
				m.home[id] = nowhere
			}
			m.loc[id], m.present[id], m.homeKm[id] = p, true, math.NaN()
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
		case 9:
			p, radius := r.point(), float64(r.byte())/8-1
			var got []int
			ix.Near(p, radius, func(id int) { got = append(got, id) })
			equal("Near", got, m.near(ix, p, radius))
		case 10: // window query, cursor form
			p, speed, byTime, now, minRetire := r.point(), float64(r.byte()%90), r.time(), r.time(), r.time()
			skipEvery, fill := int(r.byte()%4), float64(r.byte())
			equal("Reachable", m.walk(t, ix, p, speed, byTime, now, minRetire, skipEvery, fill), m.reachable(ix, p, speed, byTime, now, minRetire))
		case 11: // the payload's static half, whenever: it is the caller's
			if m.present[id] {
				m.home[id] = r.point()
				ix.SetHome(id, m.home[id])
			}
		}
		if ix.Len() != len(m.loc) {
			t.Fatalf("op %d: Len() = %d, want %d", r.pos, ix.Len(), len(m.loc))
		}
		if err := checkInvariants(ix, m); err != nil {
			t.Fatalf("op %d (kind %d, id %d): %v", r.pos, op, id, err)
		}
	}
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
	if ix.state[0] != stExpired || ix.state[1] != stParked {
		t.Fatalf("states %v after Expire(200), want expired and parked", ix.state)
	}
	if got := query(260, 250); len(got) != 0 {
		t.Fatalf("at 250: %v, want none", got)
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
	// Near never looked at windows, and still does not.
	ix.SetSpan(0, math.Inf(1), math.Inf(-1))
	ix.Expire(1000)
	var near []int
	ix.Near(p, 1, func(id int) { near = append(near, id) })
	if !slices.Equal(near, []int{0, 1}) {
		t.Fatalf("Near: %v, want [0 1]", near)
	}
}

// TestQueriesDoNotAllocate: wakes and expiries are swaps inside a cell
// and moves between reserved queues, so a warm index answers without
// touching the allocator, whatever the query raises.
func TestQueriesDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := randomPoints(rng, 4000, geo.PortoBox)
	ix := NewSparseIndex(geo.NewGrid(geo.PortoBox, 40, 40), len(pts))
	for id, p := range pts {
		start := rng.Float64() * 80000
		ix.SetSpan(id, start, start+6000)
		ix.Add(id, p)
	}
	buf := make([]int, 0, len(pts))
	now, woken, expired := 0.0, len(ix.wake), 0
	allocs := testing.AllocsPerRun(200, func() {
		now += 400
		before := len(ix.exp) + len(ix.wake)
		ix.Expire(now)
		buf = ix.AppendReachable(buf[:0], pts[int(now)%len(pts)], 60, now+600, now, now)
		expired += before - len(ix.exp) - len(ix.wake)
	})
	woken -= len(ix.wake)
	if allocs != 0 {
		t.Fatalf("%v allocations per query", allocs)
	}
	if woken < 1000 || expired < 1000 {
		t.Fatalf("the run woke %d and expired %d points; it was meant to do plenty of both", woken, expired)
	}
}
