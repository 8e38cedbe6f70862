package spatial

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
)

// The tests in this file aim at what the three-region cell, and not the
// heaps it replaced, can get wrong: an order inside the parked region
// that insert or extract breaks, a boundary that steps too far or not
// far enough, a header that does not say its cell is behind. They drive
// an index and the brute-force twin of ops_test.go together.

// pair is an index and its twin, mutated in step and compared after
// every mutation and on every query.
type pair struct {
	t  *testing.T
	ix *Index
	m  *twin
}

func newPair(t *testing.T, grid *geo.Grid, n int) *pair {
	p := &pair{t: t, ix: NewSparseIndex(grid, n), m: &twin{}}
	for i := 0; i < n; i++ {
		p.m.grow()
	}
	return p
}

func (p *pair) check() {
	p.t.Helper()
	if err := checkInvariants(p.ix, p.m); err != nil {
		p.t.Fatal(err)
	}
}

func (p *pair) place(id int, at geo.Point) {
	p.t.Helper()
	if p.m.present[id] {
		p.ix.Move(id, at, math.NaN(), -1)
	} else {
		p.ix.Add(id, at, math.NaN(), -1)
		p.m.home[id] = nowhere
	}
	p.m.loc[id], p.m.present[id], p.m.homeKm[id], p.m.node[id] = at, true, math.NaN(), -1
	p.check()
}

func (p *pair) span(id int, freeAt, retireAt float64) {
	p.t.Helper()
	p.m.free[id], p.m.retire[id] = freeAt, retireAt
	p.ix.SetSpan(id, freeAt, retireAt)
	p.check()
}

func (p *pair) remove(id int) {
	p.t.Helper()
	p.ix.Remove(id)
	p.m.present[id] = false
	p.check()
}

// query asks both window forms for who can be at `at` by byTime and
// holds each to the twin; it returns the answer.
func (p *pair) query(at geo.Point, byTime, now float64) []int {
	p.t.Helper()
	want := p.m.reachable(p.ix, at, 30, byTime, now, now)
	if got := p.ix.AppendReachable(nil, at, 30, byTime, now, now); !slices.Equal(got, want) {
		p.t.Fatalf("AppendReachable by %g at %g: %v, brute force %v", byTime, now, got, want)
	}
	p.check()
	if got, _ := p.m.walk(p.t, p.ix, at, 30, byTime, now, now, 0, 0); !slices.Equal(got, want) {
		p.t.Fatalf("Reachable by %g at %g: %v, brute force %v", byTime, now, got, want)
	}
	p.check()
	return want
}

// parkedOrder is the ids of cell c's parked region, first to last.
func (p *pair) parkedOrder(c int) []int {
	cl := &p.ix.cells[c]
	var ids []int
	for _, e := range cl.ents[:cl.park] {
		ids = append(ids, int(e.ID))
	}
	return ids
}

// TestParkedRegionEnds parks into and leaves from both ends and the
// middle of a sorted parked region, and leaves from an unsorted one. The
// shifts are counted: a park costs one per entry that wakes before it, a
// leave one per entry that wakes before the one leaving.
func TestParkedRegionEnds(t *testing.T) {
	grid := geo.NewGrid(geo.PortoBox, 1, 1)
	at := geo.PortoBox.Center()
	p := newPair(t, grid, 12)
	for id, freeAt := range []float64{300, 100, 500, 200, 400, 10} {
		p.span(id, freeAt, 9000)
		p.place(id, at)
	}
	p.span(6, 5, 9000) // woken with 5, live for the rest of the test
	p.place(6, at)

	// Unsorted, a leave takes the region's last entry for the gap.
	if got := p.parkedOrder(0); !slices.Equal(got, []int{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("parked %v before any query, want the order they were added in", got)
	}
	p.remove(1)
	if got, st := p.parkedOrder(0), p.ix.Stats(); !slices.Equal(got, []int{0, 6, 2, 3, 4, 5}) || st != (Stats{}) {
		t.Fatalf("parked %v, %+v after an unsorted leave, want the last entry in the gap and nothing counted", got, st)
	}
	p.span(1, 100, 9000)
	p.place(1, at)

	// The first query that finds the cell behind sorts it and wakes what
	// is due: 6 and 5.
	if got := p.query(at, 20, 15); !slices.Equal(got, []int{5, 6}) {
		t.Fatalf("by 20: %v, want [5 6]", got)
	}
	if got, st := p.parkedOrder(0), p.ix.Stats(); !slices.Equal(got, []int{2, 4, 0, 3, 1}) || st != (Stats{Woken: 2, Sorts: 1}) {
		t.Fatalf("parked %v, %+v after the first settle, want descending FreeAt, two woken by one sort", got, st)
	}

	shifted := func(want uint64, what string) {
		t.Helper()
		if got := p.ix.Stats().Shifted; got != want {
			t.Fatalf("%d entries shifted after %s, want %d", got, what, want)
		}
	}
	p.span(7, 50, 9000) // next to the live range: nobody wakes before her
	p.place(7, at)
	shifted(0, "a park at the near end")
	p.span(8, 600, 9000) // the far end: everybody does
	p.place(8, at)
	shifted(6, "a park at the far end")
	p.span(9, 300, 9000) // the middle, and a tie: she stops behind her equal
	p.place(9, at)
	shifted(6+3, "a park in the middle")
	if got := p.parkedOrder(0); !slices.Equal(got, []int{8, 2, 4, 0, 9, 3, 1, 7}) {
		t.Fatalf("parked %v after three parks", got)
	}
	p.remove(7)
	shifted(9, "a leave at the near end")
	p.remove(8)
	shifted(9+6, "a leave at the far end")
	p.span(0, 450, 9000) // out of the middle and back in further up
	shifted(15+3+4, "a re-park from the middle")
	if got := p.parkedOrder(0); !slices.Equal(got, []int{2, 0, 4, 9, 3, 1}) {
		t.Fatalf("parked %v after the leaves and the re-park", got)
	}
	// The live range took no part in any of it.
	if got := p.query(at, 20, 15); !slices.Equal(got, []int{5, 6}) {
		t.Fatalf("by 20 again: %v, want [5 6]", got)
	}
	// Waking runs from the near end: two equal deadlines, then the rest.
	for _, step := range []struct {
		by   float64
		want []int
	}{{150, []int{1, 5, 6}}, {300, []int{1, 3, 5, 6, 9}}, {1000, []int{0, 1, 2, 3, 4, 5, 6, 9}}} {
		if got := p.query(at, step.by, 15); !slices.Equal(got, step.want) {
			t.Fatalf("by %g: %v, want %v", step.by, got, step.want)
		}
	}
	if st := p.ix.Stats(); st != (Stats{Woken: 8, Sorts: 1, Shifted: 22}) {
		t.Fatalf("%+v at the end, want eight woken in all, one sort, twenty-two shifts", st)
	}
}

// TestExpiredWhileParked: the watermark passes a parked entry, which
// nobody looks at until the horizon reaches it — and then it goes
// straight to the expired, past the live entries, without being handed
// to a query on the way.
func TestExpiredWhileParked(t *testing.T) {
	grid := geo.NewGrid(geo.PortoBox, 1, 1)
	at := geo.PortoBox.Center()
	p := newPair(t, grid, 4)
	p.span(0, 0, 9000) // live throughout
	p.span(1, 500, 300)
	p.span(2, 600, 9000)
	p.span(3, 400, 200)
	for id := 0; id < 4; id++ {
		p.place(id, at)
	}
	p.query(at, 60, 50)
	p.ix.Expire(350)
	p.check()
	if got := p.query(at, 360, 350); !slices.Equal(got, []int{0}) {
		t.Fatalf("at 350: %v, want [0]", got)
	}
	if st := p.ix.Stats(); st != (Stats{Woken: 1, Sorts: 1}) {
		t.Fatalf("%+v with the horizon at 360, want the parked untouched by the watermark", st)
	}
	if got := p.query(at, 700, 350); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("by 700: %v, want [0 2]", got)
	}
	cl := &p.ix.cells[0]
	if st := p.ix.Stats(); st != (Stats{Woken: 2, Expired: 2, Sorts: 1}) || cl.park != 0 || cl.live != 2 {
		t.Fatalf("%+v, boundaries %d and %d: want two woken, two expired on waking, two live", st, cl.park, cl.live)
	}
	// A query below the watermark still finds them.
	want := p.m.reachable(p.ix, at, 30, 700, 100, 100)
	if got := p.ix.AppendReachable(nil, at, 30, 700, 100, 100); !slices.Equal(got, want) || len(got) != 4 {
		t.Fatalf("below the watermark: %v, brute force %v, want all four", got, want)
	}
}

// TestDenseCellDay is one cell with a few hundred entries — the hot spot
// of a clustered fleet — through a staggered day: the clock advances, a
// query of each form is answered, and one entry is moved and locked, as
// a decision does. Every step is held to the brute force, and the same
// day on a second index is run under the allocation counter.
func TestDenseCellDay(t *testing.T) {
	const n, steps = 300, 400
	grid := geo.NewGrid(geo.PortoBox, 1, 1)
	at := func(k int) geo.Point {
		return geo.PortoBox.Lerp(float64(k*7%n)/n, float64(k*13%n)/n)
	}
	build := func() *pair {
		p := newPair(t, grid, n)
		for id := 0; id < n; id++ {
			start := float64(id*9973%n) / n * 70000 // shifts start all day long
			p.m.free[id], p.m.retire[id] = start, start+15000
			p.ix.SetSpan(id, start, start+15000)
			p.m.loc[id], p.m.present[id] = at(id), true
			p.ix.Add(id, at(id), math.NaN(), -1)
		}
		p.check()
		return p
	}
	// step k of the day on ix alone — the twin follows in the checked run:
	// a query, and one of those it found driven off and locked for a ride.
	step := func(ix *Index, k int, buf []int) (id int, to geo.Point, free float64, got []int) {
		now := float64(k) * 86400 / steps
		ix.Expire(now)
		got = ix.AppendReachable(buf[:0], at(k), 40, now+900, now, now)
		if len(got) == 0 {
			return -1, to, free, got
		}
		id, to, free = got[k%len(got)], at(k+1), now+1200+float64(k%5)*600
		ix.Move(id, to, math.NaN(), -1)
		ix.SetSpan(id, free, ix.retireAt[id])
		return
	}

	p := build()
	for k := 0; k < steps; k++ {
		now := float64(k) * 86400 / steps
		want := p.m.reachable(p.ix, at(k), 40, now+900, now, now)
		id, to, free, got := step(p.ix, k, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: %v, brute force %v", k, got, want)
		}
		if id >= 0 {
			p.m.loc[id], p.m.homeKm[id], p.m.node[id], p.m.free[id] = to, math.NaN(), -1, free
		}
		p.check()
		if k%4 == 0 {
			want := p.m.reachable(p.ix, at(k), 40, now+900, now, now)
			if got, _ := p.m.walk(t, p.ix, at(k), 40, now+900, now, now, k%3, 0); !slices.Equal(got, want) {
				t.Fatalf("step %d, cursor: %v, brute force %v", k, got, want)
			}
			p.check()
		}
	}
	st := p.ix.Stats()
	if st.Woken < n || st.Expired < n/2 || st.Sorts != 1 {
		t.Fatalf("%+v over the day; it was meant to wake the fleet, retire most of it and sort once", st)
	}
	// A park shifts past the entries that wake before it: here a lock of
	// 20 to 60 minutes, among 300 shift starts spread over 19 hours and
	// the few others locked at the time — 9.2 measured, not the cell.
	if perPark := float64(st.Shifted) / steps; perPark > 12 {
		t.Fatalf("%.1f entries shifted a park in a cell of %d", perPark, n)
	}

	q := build()
	buf, k := make([]int, 0, n), 0
	if allocs := testing.AllocsPerRun(steps-1, func() { step(q.ix, k, buf); k++ }); allocs != 0 {
		t.Fatalf("%v allocations a step", allocs)
	}
	if q.ix.Stats() != st {
		t.Fatalf("the unchecked day counted %+v, the checked one %+v", q.ix.Stats(), st)
	}
}

// TestLoadHotCell: Load lays out a hot spot — forty points in one cell,
// thirty of them locked until times given out of order, one retired
// before the clock — with its parked region in wake order, so the
// queries that wake it walk the boundary down without a sort, and a
// later park keeps the order it found.
func TestLoadHotCell(t *testing.T) {
	const n = 40
	grid := geo.NewGrid(geo.PortoBox, 1, 1)
	at := geo.PortoBox.Center()
	p := newPair(t, grid, n)
	for id := range 30 {
		p.span(id, float64(1000+id*7919%30*100), 90000)
	}
	p.span(30, 0, 50)
	p.ix.Expire(100)
	p.ix.Load(func(id int) (geo.Point, geo.Point, float64, int32) { return at, nowhere, float64(id), -1 }, false)
	for id := range n {
		p.m.loc[id], p.m.present[id], p.m.homeKm[id] = at, true, float64(id)
	}
	p.check()
	if cl := &p.ix.cells[0]; cl.park != 30 || cl.live != n-1 || !cl.sorted || cl.maxHomeKm != n-1 {
		t.Fatalf("boundaries %d, %d, sorted %v, aggregate %g: want 30 parked, 9 live under 39, 1 expired", cl.park, cl.live, cl.sorted, cl.maxHomeKm)
	}
	for _, by := range []float64{1500, 2600, 3900} {
		if by == 3900 {
			p.span(0, 3450, 90000) // locked again, among those still parked
		}
		if got := len(p.query(at, by, 200)); got != 9+int(by-1000)/100+1 {
			t.Fatalf("by %g: %d points, want the 9 always free and those free by then", by, got)
		}
	}
	// 6, 11 and 13 woken, and 0 twice; she parked past the 8 that wake
	// between 2 700 and 3 400 s.
	if st := p.ix.Stats(); st != (Stats{Woken: 31, Shifted: 8}) {
		t.Fatalf("%+v: want 31 woken without a sort, 8 shifted", st)
	}
}

// TestInfiniteDeadline: a query by +Inf wakes everything with a finite
// free time and leaves no cell behind for good. The horizon stops short
// of +Inf, so a cell with nothing to wake (wakeAt +Inf) reads as settled,
// and an entry free at +Inf — which no query accepts, by +Inf or not —
// stays parked.
func TestInfiniteDeadline(t *testing.T) {
	grid := geo.NewGrid(geo.PortoBox, 2, 2)
	p := newPair(t, grid, 3)
	p.span(0, 500, 9000)
	p.span(1, math.Inf(1), math.Inf(1))
	for id := 0; id < 3; id++ {
		p.place(id, grid.CellCenter(id))
	}
	if got := p.query(grid.CellCenter(0), math.Inf(1), 100); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("by +Inf: %v, want [0 2]", got)
	}
	if p.ix.horizon != math.MaxFloat64 || p.ix.slot[1] >= p.ix.cells[1].park {
		t.Fatalf("horizon %g, id 1 at slot %d of %d parked; want the horizon finite and her parked", p.ix.horizon, p.ix.slot[1], p.ix.cells[1].park)
	}
	for c := range p.ix.cells {
		if p.ix.behind(&p.ix.cells[c]) {
			t.Fatalf("cell %d is behind after a query that came to it", c)
		}
	}
	p.span(2, 1e300, 9000) // nothing finite parks any more
	if cl := &p.ix.cells[2]; cl.park != 0 || cl.live != 1 {
		t.Fatalf("boundaries %d, %d after a SetSpan under the raised horizon, want a live entry", cl.park, cl.live)
	}
}
