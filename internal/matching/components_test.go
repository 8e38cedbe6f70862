package matching

import (
	"math/rand"
	"sort"
	"testing"
)

// buildSparse assembles a Sparse from per-row column lists.
func buildSparse(cols int, rows [][]int) Sparse {
	sp := Sparse{Rows: len(rows), Cols: cols, RowPtr: make([]int, len(rows)+1)}
	for r, cs := range rows {
		sp.RowPtr[r+1] = sp.RowPtr[r] + len(cs)
		for _, c := range cs {
			sp.Col = append(sp.Col, c)
			sp.W = append(sp.W, 1)
		}
	}
	return sp
}

func TestComponentScratchBasic(t *testing.T) {
	// Rows 0,2 share col 1; row 1 owns col 0; row 3 edgeless; col 2 untouched.
	sp := buildSparse(3, [][]int{{1}, {0}, {1}, {}})
	var cs ComponentScratch
	n := cs.Decompose(sp)
	if n != 3 {
		t.Fatalf("ncomp = %d, want 3", n)
	}
	wantRow := []int{0, 1, 0, 2}
	for r, w := range wantRow {
		if cs.CompOfRow[r] != w {
			t.Fatalf("CompOfRow[%d] = %d, want %d", r, cs.CompOfRow[r], w)
		}
	}
	wantCol := []int{1, 0, -1}
	for c, w := range wantCol {
		if cs.CompOfCol[c] != w {
			t.Fatalf("CompOfCol[%d] = %d, want %d", c, cs.CompOfCol[c], w)
		}
	}
	// Component 0: rows {0,2}, cols {1}. Component 1: rows {1}, cols {0}.
	// Component 2: rows {3}, no cols.
	if got := cs.RowsByComp[cs.RowPtr[0]:cs.RowPtr[1]]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("comp 0 rows = %v, want [0 2]", got)
	}
	if got := cs.ColsByComp[cs.ColPtr[0]:cs.ColPtr[1]]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("comp 0 cols = %v, want [1]", got)
	}
	if got := cs.ColsByComp[cs.ColPtr[2]:cs.ColPtr[3]]; len(got) != 0 {
		t.Fatalf("comp 2 cols = %v, want empty", got)
	}
}

// floodFillRows labels each row with its component — rows are joined by
// any column they share — numbering components by smallest member row.
func floodFillRows(nc int, rows [][]int) []int {
	byCol := make([][]int, nc)
	for r, cols := range rows {
		for _, c := range cols {
			byCol[c] = append(byCol[c], r)
		}
	}
	comp := make([]int, len(rows))
	for r := range comp {
		comp[r] = -1
	}
	n := 0
	for r := range rows {
		if comp[r] >= 0 {
			continue
		}
		comp[r] = n
		for stack := []int{r}; len(stack) > 0; {
			at := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range rows[at] {
				for _, nb := range byCol[c] {
					if comp[nb] < 0 {
						comp[nb] = n
						stack = append(stack, nb)
					}
				}
			}
		}
		n++
	}
	return comp
}

// TestComponentScratchMatchesSolver fuzzes random instances and checks
// that the decomposition's row labels agree with a flood fill over rows
// that share a column, that its row layout lists each component's rows
// ascending, and that the column layout is consistent with the row
// labels. (The solve itself splits nothing; TestSolveComponentsAlone
// holds it to the components Decompose finds.)
func TestComponentScratchMatchesSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var cs ComponentScratch
	for trial := 0; trial < 300; trial++ {
		nr := rng.Intn(12)
		nc := rng.Intn(12)
		rows := make([][]int, nr)
		if nc > 0 {
			for r := range rows {
				deg := rng.Intn(4)
				for k := 0; k < deg; k++ {
					c := rng.Intn(nc)
					dup := false
					for _, have := range rows[r] {
						if have == c {
							dup = true
							break
						}
					}
					if !dup {
						rows[r] = append(rows[r], c)
					}
				}
				sort.Ints(rows[r])
			}
		}
		sp := buildSparse(nc, rows)
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		n := cs.Decompose(sp)
		flood := floodFillRows(nc, rows)
		nWant := 0
		for r := 0; r < nr; r++ {
			if cs.CompOfRow[r] != flood[r] {
				t.Fatalf("trial %d: CompOfRow[%d] = %d, flood fill %d", trial, r, cs.CompOfRow[r], flood[r])
			}
			nWant = max(nWant, flood[r]+1)
		}
		if n != nWant {
			t.Fatalf("trial %d: ncomp %d, flood fill %d", trial, n, nWant)
		}
		// Row side: component comp lists exactly its rows, ascending.
		if cs.RowPtr[0] != 0 || cs.RowPtr[n] != nr {
			t.Fatalf("trial %d: RowPtr spans [%d, %d), want [0, %d)", trial, cs.RowPtr[0], cs.RowPtr[n], nr)
		}
		for comp := 0; comp < n; comp++ {
			prev := -1
			for _, r := range cs.RowsByComp[cs.RowPtr[comp]:cs.RowPtr[comp+1]] {
				if r <= prev || flood[r] != comp {
					t.Fatalf("trial %d: comp %d lists row %d (flood fill %d) after %d", trial, comp, r, flood[r], prev)
				}
				prev = r
			}
		}
		// Column side: every edge must stay inside its row's component,
		// every touched column appears exactly once, lists ascend.
		seen := make(map[int]bool)
		for comp := 0; comp < n; comp++ {
			prev := -1
			for _, c := range cs.ColsByComp[cs.ColPtr[comp]:cs.ColPtr[comp+1]] {
				if c <= prev {
					t.Fatalf("trial %d: comp %d cols not ascending", trial, comp)
				}
				prev = c
				if seen[c] {
					t.Fatalf("trial %d: col %d in two components", trial, c)
				}
				seen[c] = true
				if cs.CompOfCol[c] != comp {
					t.Fatalf("trial %d: CompOfCol[%d] = %d, laid out in %d", trial, c, cs.CompOfCol[c], comp)
				}
			}
		}
		for r := 0; r < nr; r++ {
			for k := sp.RowPtr[r]; k < sp.RowPtr[r+1]; k++ {
				if cs.CompOfCol[sp.Col[k]] != cs.CompOfRow[r] {
					t.Fatalf("trial %d: edge (%d,%d) crosses components", trial, r, sp.Col[k])
				}
			}
		}
		for c := 0; c < nc; c++ {
			touched := false
			for r := 0; r < nr && !touched; r++ {
				for k := sp.RowPtr[r]; k < sp.RowPtr[r+1]; k++ {
					if sp.Col[k] == c {
						touched = true
						break
					}
				}
			}
			if touched != seen[c] {
				t.Fatalf("trial %d: col %d touched=%v laid out=%v", trial, c, touched, seen[c])
			}
			if !touched && cs.CompOfCol[c] != -1 {
				t.Fatalf("trial %d: untouched col %d has component %d", trial, c, cs.CompOfCol[c])
			}
		}
	}
}

// TestComponentScratchManyRowsFewCols regression-tests the cursor
// reuse: more components than columns must not index out of range.
func TestComponentScratchManyRowsFewCols(t *testing.T) {
	sp := buildSparse(1, [][]int{{}, {}, {}, {}, {0}})
	var cs ComponentScratch
	if n := cs.Decompose(sp); n != 5 {
		t.Fatalf("ncomp = %d, want 5", n)
	}
	if cs.CompOfCol[0] != 4 {
		t.Fatalf("CompOfCol[0] = %d, want 4", cs.CompOfCol[0])
	}
}

func TestComponentScratchZeroAlloc(t *testing.T) {
	sp := buildSparse(6, [][]int{{0, 1}, {1, 2}, {3}, {4, 5}})
	var cs ComponentScratch
	cs.Decompose(sp)
	avg := testing.AllocsPerRun(50, func() { cs.Decompose(sp) })
	if avg != 0 {
		t.Fatalf("steady-state Decompose allocates %v per run, want 0", avg)
	}
}
