package spatial

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
)

// cellCenters is a rows×cols grid over the Porto box with one point at
// the center of every cell, so that id == cell.
func cellCenters(rows, cols int) (*Index, *geo.Grid) {
	grid := geo.NewGrid(geo.PortoBox, rows, cols)
	pts := make([]geo.Point, grid.NumCells())
	for c := range pts {
		pts[c] = grid.CellCenter(c)
	}
	return NewIndex(grid, pts), grid
}

// cellsOf steps c to its end and returns the cells it came to, each by
// the id of its one point, with the RingKm it reported there.
func cellsOf(t *testing.T, c Cursor) (cells []int, ringKm []float64) {
	t.Helper()
	for c.Next() {
		ents := c.Entries()
		if len(ents) != 1 {
			t.Fatalf("a cell of %d entries on a one-point-a-cell grid", len(ents))
		}
		cells = append(cells, int(ents[0].ID))
		ringKm = append(ringKm, c.RingKm())
	}
	return cells, ringKm
}

// TestCursorWalksRingsOutward pins the order Next takes the cells in:
// the center, then each ring's top row, bottom row, left column and
// right column, clipped at the grid's edge — and the bound each ring
// reports.
func TestCursorWalksRingsOutward(t *testing.T) {
	ix, grid := cellCenters(5, 5)
	const all = 1e6 // a deadline far enough for the whole grid
	span := ix.minSpanKm

	got, kms := cellsOf(t, ix.Reachable(grid.CellCenter(12), 30, all, 0, 0))
	want := []int{
		12,
		6, 7, 8, 16, 17, 18, 11, 13,
		0, 1, 2, 3, 4, 20, 21, 22, 23, 24, 5, 10, 15, 9, 14, 19,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("from the middle: cells %v, want %v", got, want)
	}
	for i, km := range kms {
		wantKm := 0.0
		if i >= 9 {
			wantKm = Safety * span
		}
		if km != wantKm {
			t.Fatalf("from the middle: RingKm %g at cell %d, want %g", km, got[i], wantKm)
		}
	}

	// From a corner three quarters of every ring is off the grid.
	got, kms = cellsOf(t, ix.Reachable(grid.CellCenter(20), 30, all, 0, 0))
	want = []int{
		20,
		15, 16, 21,
		10, 11, 12, 17, 22,
		5, 6, 7, 8, 13, 18, 23,
		0, 1, 2, 3, 4, 9, 14, 19, 24,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("from the corner: cells %v, want %v", got, want)
	}
	if last := kms[len(kms)-1]; last != Safety*3*span {
		t.Fatalf("from the corner: RingKm %g on ring 4, want %g", last, Safety*3*span)
	}

	// A deadline only the center cell's neighbours can meet: the square
	// ends at the first ring whose bound lies beyond the radius.
	if got, _ := cellsOf(t, ix.Reachable(grid.CellCenter(12), 30, 60, 0, 0)); len(got) != 9 {
		t.Fatalf("with half a kilometre of budget: cells %v, want the center and its ring", got)
	}
	// Queries no point can satisfy get a cursor with nothing in it.
	for name, c := range map[string]Cursor{
		"no speed":          ix.Reachable(grid.CellCenter(12), 0, all, 0, 0),
		"deadline past now": ix.Reachable(grid.CellCenter(12), 30, 10, 20, 0),
	} {
		if c.Next() {
			t.Fatalf("%s: the cursor has a cell", name)
		}
	}
}

// TestPayloadTravelsWithTheEntry: the static half is set once and stays
// through windows, moves and rebucketing; HomeKm and Node are what the
// last Add or Move gave; Remove drops both.
func TestPayloadTravelsWithTheEntry(t *testing.T) {
	grid := geo.NewGrid(geo.PortoBox, 4, 4)
	ix := NewSparseIndex(grid, 3)
	home := geo.PortoBox.Lerp(0.9, 0.1)
	hx, hy := ix.Project(home)
	nan := math.NaN()
	lookup := func() Entry {
		t.Helper()
		e, ok := ix.Lookup(1)
		if !ok {
			t.Fatal("id 1 is not in the index")
		}
		return e
	}

	if _, ok := ix.Lookup(1); ok {
		t.Fatal("Lookup found an id that was never added")
	}
	ix.Add(1, grid.CellCenter(5), nan, -1)
	if e := lookup(); e.HomeX == e.HomeX || e.HomeY == e.HomeY || e.HomeKm == e.HomeKm || e.Node != -1 {
		t.Fatalf("fresh entry %+v: want a payload of NaNs and no node", e)
	}
	ix.SetHome(1, home)

	// known gives her, where she stands, HomeKm 7.5 and Node 2, and a
	// cursor's caller makes her cell's aggregate exact: 7.5.
	known := func() {
		t.Helper()
		ix.Move(1, ix.Location(1), 7.5, 2)
		n := 0
		for c := ix.Reachable(ix.Location(1), 30, 1e6, 0, 0); c.Next(); {
			maxHome := math.Inf(-1)
			for _, en := range c.Entries() {
				maxHome = max(maxHome, en.HomeKm)
				n++
			}
			c.Tighten(maxHome)
		}
		if n != 1 || ix.cells[ix.cell[1]].maxHomeKm != 7.5 {
			t.Fatalf("the walk met %d entries and left the aggregate at %g, want 1 and 7.5", n, ix.cells[ix.cell[1]].maxHomeKm)
		}
	}
	known()
	ix.SetSpan(1, 10, 5000)
	if e := lookup(); e.HomeX != hx || e.HomeY != hy || e.HomeKm != 7.5 || e.Node != 2 || e.FreeAt != 10 || e.RetireAt != 5000 {
		t.Fatalf("after SetSpan: %+v", e)
	}

	for _, mv := range []struct {
		name   string
		to     geo.Point
		cell   int32
		homeKm float64 // what the move hands over
		node   int32   // likewise
		agg    float64 // the cell's aggregate after it
	}{
		{"within the cell", grid.Box.Lerp(0.3, 0.3), 5, nan, -1, math.Inf(1)},
		{"to another cell", grid.CellCenter(10), 10, nan, -1, math.Inf(1)},
		// known left the cell's aggregate at 7.5: raised.
		{"within the cell, known", grid.Box.Lerp(0.6, 0.6), 10, 9, 4, 9},
		// A cell nothing has been in: bounded by the newcomer alone.
		{"to another cell, known", grid.CellCenter(0), 0, 6, 0, 6},
	} {
		known()
		ix.Move(1, mv.to, mv.homeKm, mv.node)
		e := lookup()
		px, py := ix.Project(mv.to)
		if ix.cell[1] != mv.cell || e.PX != px || e.PY != py || e.HomeX != hx || e.HomeY != hy || !sameFloat(e.HomeKm, mv.homeKm) || e.Node != mv.node {
			t.Fatalf("after a move %s: %+v in cell %d, want the home kept, HomeKm %g and Node %d", mv.name, e, ix.cell[1], mv.homeKm, mv.node)
		}
		if agg := ix.cells[mv.cell].maxHomeKm; agg != mv.agg {
			t.Fatalf("after a move %s: the cell's aggregate is %g, want %g", mv.name, agg, mv.agg)
		}
	}

	ix.Remove(1)
	ix.Add(1, grid.CellCenter(15), 4, 5)
	if e := lookup(); e.HomeX == e.HomeX || e.HomeKm != 4 || e.Node != 5 || ix.cells[15].maxHomeKm != 4 {
		t.Fatalf("re-added entry %+v under the aggregate %g: Remove must drop the payload, Add give HomeKm 4 and Node 5", e, ix.cells[15].maxHomeKm)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetHome of an absent id did not panic")
		}
	}()
	ix.SetHome(2, home)
}

// TestCellAggregate follows one cell's MaxHomeKm through what raises it,
// what leaves it stale and what makes it exact again. With the cell
// keeping its own time one step moved and none changed what it reads:
// Expire(2000) no longer takes the long haul out of the live range, the
// visit after it does, before it answers — so every visit sees what it
// saw when Expire did the work.
func TestCellAggregate(t *testing.T) {
	grid := geo.NewGrid(geo.PortoBox, 3, 3)
	p := grid.CellCenter(4)
	ix := NewIndex(grid, []geo.Point{p, p})
	ix.SetSpan(0, 0, 1000) // retires early: the long haul
	ix.SetSpan(1, 0, 9000)

	// visit walks to the one occupied cell and hands its cursor to fn.
	visit := func(now, minRetire float64, fn func(c *Cursor)) {
		t.Helper()
		c := ix.Reachable(p, 30, now+600, now, minRetire)
		if !c.Next() {
			t.Fatal("no cell to scan")
		}
		fn(&c)
		if c.Next() {
			t.Fatal("a second cell to scan")
		}
	}
	visit(0, 0, func(c *Cursor) {
		if !math.IsInf(c.MaxHomeKm(), 1) {
			t.Fatalf("MaxHomeKm %g over two unknown entries, want +Inf", c.MaxHomeKm())
		}
	})
	// Moves that make both known raise nothing past +Inf; the visit after
	// them brings it down.
	ix.Move(0, p, 40, -1)
	ix.Move(1, p, 2, -1)
	visit(0, 0, func(c *Cursor) {
		if !math.IsInf(c.MaxHomeKm(), 1) {
			t.Fatalf("MaxHomeKm %g after moves under +Inf, want +Inf", c.MaxHomeKm())
		}
		c.Tighten(40)
	})
	ix.Expire(2000) // the long haul leaves the live entries at the next visit; nothing is lowered
	visit(2000, 2000, func(c *Cursor) {
		if ents := c.Entries(); len(ents) != 1 || ents[0].ID != 1 {
			t.Fatalf("after the expiry: entries %+v, want id 1 alone", ents)
		}
		if c.MaxHomeKm() != 40 {
			t.Fatalf("stale aggregate %g, want the 40 of the entry that left", c.MaxHomeKm())
		}
		c.Tighten(2)
	})
	// A query below the watermark reads the expired entry too, is told
	// nothing about the cell, and its report is dropped.
	visit(500, 500, func(c *Cursor) {
		if len(c.Entries()) != 2 || !math.IsInf(c.MaxHomeKm(), 1) {
			t.Fatalf("below the watermark: %d entries under MaxHomeKm %g, want 2 under +Inf", len(c.Entries()), c.MaxHomeKm())
		}
		c.Tighten(-1)
	})
	visit(2000, 2000, func(c *Cursor) {
		if c.MaxHomeKm() != 2 {
			t.Fatalf("aggregate %g after Tighten(2), want 2", c.MaxHomeKm())
		}
		c.Tighten(math.NaN())
	})
	if agg := ix.cells[4].maxHomeKm; !math.IsInf(agg, 1) {
		t.Fatalf("aggregate %g after Tighten(NaN), want +Inf", agg)
	}
	// Re-opening the long haul puts her among the live again, and her
	// HomeKm back under the aggregate.
	visit(2000, 2000, func(c *Cursor) { c.Tighten(2) })
	ix.SetSpan(0, 0, 9000)
	if agg := ix.cells[4].maxHomeKm; agg != 40 {
		t.Fatalf("aggregate %g with the 40 km entry live again, want 40", agg)
	}
}
