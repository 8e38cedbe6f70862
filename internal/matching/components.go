package matching

// ComponentScratch is the package's one union-find: it splits a Sparse
// bipartite instance into connected row–column components and lays
// both sides out in canonical order. The window solve needs none of it
// (SparseSolver's augments stay inside their component on their own);
// callers that want the components themselves — the offline oracle rail
// solves each hindsight component independently — take them from
// Decompose. The zero value is ready to use; buffers are grown to the
// high-water mark and reused across calls, and all returned layout
// slices alias the scratch — valid until the next Decompose.
type ComponentScratch struct {
	parent   []int
	firstRow []int

	// CompOfRow[r] is row r's component id; every row belongs to a
	// component (edgeless rows are singletons). CompOfCol[c] is column
	// c's component, or -1 for columns no edge touches. Components are
	// numbered by their smallest member row, ascending.
	CompOfRow []int
	CompOfCol []int

	// Component c owns rows RowsByComp[RowPtr[c]:RowPtr[c+1]] and
	// columns ColsByComp[ColPtr[c]:ColPtr[c+1]], each in ascending
	// order.
	RowPtr     []int
	RowsByComp []int
	ColPtr     []int
	ColsByComp []int
}

func (cs *ComponentScratch) find(r int) int {
	for cs.parent[r] != r {
		cs.parent[r] = cs.parent[cs.parent[r]] // path halving
		r = cs.parent[r]
	}
	return r
}

// Decompose runs the union-find over sp's edges — rows sharing any
// column are merged — and fills the whole scratch layout, rows and
// columns. It returns the component count. sp is assumed valid (see
// Sparse.Validate).
func (cs *ComponentScratch) Decompose(sp Sparse) int {
	cs.parent = grow(cs.parent, sp.Rows)
	for r := range cs.parent {
		cs.parent[r] = r
	}
	cs.firstRow = grow(cs.firstRow, sp.Cols)
	for c := range cs.firstRow {
		cs.firstRow[c] = -1
	}
	for r := 0; r < sp.Rows; r++ {
		for k := sp.RowPtr[r]; k < sp.RowPtr[r+1]; k++ {
			c := sp.Col[k]
			if cs.firstRow[c] < 0 {
				cs.firstRow[c] = r
				continue
			}
			a, b := cs.find(r), cs.find(cs.firstRow[c])
			if a != b {
				cs.parent[b] = a
			}
		}
	}
	// Label rows in order of first appearance so ids ascend by smallest
	// member row whatever the union roots are.
	cs.CompOfRow = grow(cs.CompOfRow, sp.Rows)
	for r := 0; r < sp.Rows; r++ {
		cs.CompOfRow[r] = -1
	}
	ncomp := 0
	for r := 0; r < sp.Rows; r++ {
		root := cs.find(r)
		if cs.CompOfRow[root] < 0 {
			cs.CompOfRow[root] = ncomp
			ncomp++
		}
		cs.CompOfRow[r] = cs.CompOfRow[root]
	}
	// Counting-sort the rows into their components; scanning ids
	// ascending keeps each component's member list ascending. The
	// union-find is settled, so parent (len sp.Rows ≥ ncomp) serves as
	// the fill cursors, here and for the columns below (firstRow's
	// sp.Cols may be smaller).
	cs.RowPtr = grow(cs.RowPtr, ncomp+1)
	for c := 0; c <= ncomp; c++ {
		cs.RowPtr[c] = 0
	}
	for r := 0; r < sp.Rows; r++ {
		cs.RowPtr[cs.CompOfRow[r]+1]++
	}
	for c := 1; c <= ncomp; c++ {
		cs.RowPtr[c] += cs.RowPtr[c-1]
	}
	cs.RowsByComp = grow(cs.RowsByComp, sp.Rows)
	cursors := cs.parent
	for c := 0; c < ncomp; c++ {
		cursors[c] = cs.RowPtr[c]
	}
	for r := 0; r < sp.Rows; r++ {
		c := cs.CompOfRow[r]
		cs.RowsByComp[cursors[c]] = r
		cursors[c]++
	}

	// Columns inherit the component of the first row that touched them,
	// and are counting-sorted the way the rows were.
	cs.CompOfCol = grow(cs.CompOfCol, sp.Cols)
	for c := 0; c < sp.Cols; c++ {
		if cs.firstRow[c] < 0 {
			cs.CompOfCol[c] = -1
		} else {
			cs.CompOfCol[c] = cs.CompOfRow[cs.firstRow[c]]
		}
	}
	cs.ColPtr = grow(cs.ColPtr, ncomp+1)
	for c := 0; c <= ncomp; c++ {
		cs.ColPtr[c] = 0
	}
	ncols := 0
	for c := 0; c < sp.Cols; c++ {
		if cs.CompOfCol[c] >= 0 {
			cs.ColPtr[cs.CompOfCol[c]+1]++
			ncols++
		}
	}
	for c := 1; c <= ncomp; c++ {
		cs.ColPtr[c] += cs.ColPtr[c-1]
	}
	cs.ColsByComp = grow(cs.ColsByComp, ncols)
	for c := 0; c < ncomp; c++ {
		cursors[c] = cs.ColPtr[c]
	}
	for c := 0; c < sp.Cols; c++ {
		if comp := cs.CompOfCol[c]; comp >= 0 {
			cs.ColsByComp[cursors[comp]] = c
			cursors[comp]++
		}
	}
	return ncomp
}
