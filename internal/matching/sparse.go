package matching

import (
	"fmt"
	"math"
)

// This file is the sparse formulation of the window-matching problem.
// The dense solver in hungarian.go receives a full rows×cols weight
// matrix and reduces it to a virtual (rows+cols)² square, which is
// exactly the right oracle for tests but hopeless as a hot path: a batched dispatch window over a
// city fleet is a *sparse* bipartite graph (each order reaches a few
// dozen nearby drivers out of tens of thousands) that usually falls
// apart into many small connected components, each solvable
// independently.
//
// Sparse is that graph in CSR form, and SparseSolver solves it with
// zero steady-state allocations: every slice it needs is grown once and
// reused across solves, so a long-running dispatcher clears thousands
// of windows without touching the allocator. Solve augments one row at
// a time, rows ascending, and each augment only ever reaches the
// columns of its own row's connected component, so the instance is in
// effect solved component by component without being split: components
// share no rows, no columns and no dual variables, so interleaving their
// rows changes no float operation of any of them, and the union of
// per-component optima is a global maximum-weight matching (any
// matching of the whole restricts to one per component, and its weight
// is the sum of the restrictions).

// Sparse is a sparse rectangular weight matrix in compressed sparse
// row form: row r's edges are Col[RowPtr[r]:RowPtr[r+1]] (column
// indices, strictly ascending within a row) with weights in the
// parallel W span. Absent pairs are forbidden; entries with weight ≤ 0
// may be present but are never matched (unmatched is individually
// rational), so hot-path builders should drop them while constructing
// the instance.
type Sparse struct {
	Rows   int
	Cols   int
	RowPtr []int
	Col    []int
	W      []float64
}

// Validate checks the CSR structure; Solve calls it on entry.
func (sp Sparse) Validate() error {
	if sp.Rows < 0 || sp.Cols < 0 {
		return fmt.Errorf("matching: negative sparse dims %dx%d", sp.Rows, sp.Cols)
	}
	if len(sp.RowPtr) != sp.Rows+1 {
		return fmt.Errorf("matching: sparse RowPtr len %d, want rows+1 = %d", len(sp.RowPtr), sp.Rows+1)
	}
	if sp.RowPtr[0] != 0 {
		return fmt.Errorf("matching: sparse RowPtr[0] = %d, want 0", sp.RowPtr[0])
	}
	nnz := sp.RowPtr[sp.Rows]
	if len(sp.Col) < nnz || len(sp.W) < nnz {
		return fmt.Errorf("matching: sparse edge arrays shorter than RowPtr extent %d", nnz)
	}
	for r := 0; r < sp.Rows; r++ {
		lo, hi := sp.RowPtr[r], sp.RowPtr[r+1]
		if lo > hi {
			return fmt.Errorf("matching: sparse RowPtr not monotone at row %d", r)
		}
		for k := lo; k < hi; k++ {
			if c := sp.Col[k]; c < 0 || c >= sp.Cols {
				return fmt.Errorf("matching: sparse column %d out of range [0,%d) at row %d", c, sp.Cols, r)
			}
			if k > lo && sp.Col[k] <= sp.Col[k-1] {
				return fmt.Errorf("matching: sparse columns not strictly ascending in row %d", r)
			}
		}
	}
	return nil
}

// SparseSolver carries the reusable scratch of sparse solves. The zero
// value is ready to use; a solver is not safe for concurrent Solve
// calls (one window at a time).
type SparseSolver struct {
	// Matching state, persistent across the rows of one solve. Columns
	// live in an extended id space: real columns 0..Cols-1, then one
	// virtual "exit" column Cols+r per row r representing "leave row r
	// unmatched" at weight 0 — the sparse analogue of the dense
	// reduction's personal dummy column, without ever materializing the
	// O((rows+cols)²) square.
	colOf []int // row -> extended column (exit ⇒ unmatched)
	rowOf []int // extended column -> row, -1 free
	u     []float64
	v     []float64

	// Per-row Dijkstra state, reset between rows via the touched list
	// only, so a row's augment costs work proportional to its
	// component, not the instance.
	minv []float64
	way  []int
	used []bool

	// The columns one row's augment dirtied.
	touched []int
}

// grow returns s resized to n elements. It reallocates only when the
// capacity is short, keeping the contents up to the old capacity, and
// never shrinks.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		s = append(s[:cap(s)], make(S, n-cap(s))...)
	}
	return s[:n]
}

// Solve computes a maximum-weight matching of sp by shortest augmenting
// paths with dual potentials, one row at a time in ascending order
// (exact, deterministic).
//
// The returned slice maps each row to its matched column (-1 for
// unmatched) and is owned by the solver: it is valid until the next
// Solve call and must not be retained. Weight and matched counts are
// computed from the final assignment in ascending row order.
func (s *SparseSolver) Solve(sp Sparse) (colOf []int, weight float64, matched int, err error) {
	if err := sp.Validate(); err != nil {
		return nil, 0, 0, err
	}
	ext := sp.Cols + sp.Rows // real columns plus one exit per row
	s.colOf = grow(s.colOf, sp.Rows)
	s.rowOf = grow(s.rowOf, ext)
	for r := 0; r < sp.Rows; r++ {
		s.colOf[r] = -1
	}
	for c := 0; c < ext; c++ {
		s.rowOf[c] = -1
	}
	if sp.Rows == 0 {
		return s.colOf, 0, 0, nil
	}

	s.u = grow(s.u, sp.Rows)
	s.v = grow(s.v, ext)
	s.minv = grow(s.minv, ext)
	s.way = grow(s.way, ext)
	s.used = grow(s.used, ext)
	for r := 0; r < sp.Rows; r++ {
		s.u[r] = 0
	}
	inf := math.Inf(1)
	for c := 0; c < ext; c++ {
		s.v[c] = 0
		s.minv[c] = inf
		s.used[c] = false
	}

	for r := 0; r < sp.Rows; r++ {
		s.augmentRow(sp, r)
	}

	// Settle in ascending row order, mapping exit columns back to
	// "unmatched".
	for r := 0; r < sp.Rows; r++ {
		c := s.colOf[r]
		if c < 0 || c >= sp.Cols {
			s.colOf[r] = -1
			continue
		}
		for k := sp.RowPtr[r]; k < sp.RowPtr[r+1]; k++ {
			if sp.Col[k] == c {
				weight += sp.W[k]
				break
			}
		}
		matched++
	}
	return s.colOf, weight, matched, nil
}

// augmentRow extends the matching by one shortest augmenting path from
// row r0 — one outer iteration of the Jonker-Volgenant scheme the dense
// Hungarian runs, restated over adjacency lists. Edge weights w become
// costs −w; row r's exit column (id Cols+r) costs 0 and represents
// staying unmatched, so only positive-weight matches ever improve the
// objective and edges with w ≤ 0 need no relaxing at all. The Dijkstra
// frontier only ever reaches columns of r0's component, and the scratch
// it dirties is reset through the touched list, which is what makes a
// window of many small components cheap. Frontier ties break toward the
// smallest extended column id, mirroring the dense solver's ascending
// column scan.
func (s *SparseSolver) augmentRow(sp Sparse, r0 int) {
	touched := s.touched[:0]
	inf := math.Inf(1)
	j0 := -1 // frontier column; -1 while the path is still just r0
	for {
		i0 := r0
		if j0 >= 0 {
			i0 = s.rowOf[j0]
		}
		// Relax i0's positive edges and its exit column against the
		// current potentials (the dual updates below keep the reduced
		// cost through every settled column at zero, so no explicit
		// path-length bookkeeping is needed).
		for k := sp.RowPtr[i0]; k < sp.RowPtr[i0+1]; k++ {
			c := sp.Col[k]
			w := sp.W[k]
			if w <= 0 || s.used[c] {
				continue
			}
			cur := -w - s.u[i0] - s.v[c]
			if cur < s.minv[c] {
				if s.minv[c] == inf {
					touched = append(touched, c)
				}
				s.minv[c] = cur
				s.way[c] = j0
			}
		}
		if ec := sp.Cols + i0; !s.used[ec] {
			cur := -s.u[i0] - s.v[ec]
			if cur < s.minv[ec] {
				if s.minv[ec] == inf {
					touched = append(touched, ec)
				}
				s.minv[ec] = cur
				s.way[ec] = j0
			}
		}
		// Settle the reachable column with the least tentative cost,
		// ties to the smallest id. i0's exit is always relaxable and
		// never already settled (i0 appears on the path at most once),
		// so a candidate always exists.
		delta, j1 := inf, -1
		for _, c := range touched {
			if s.used[c] {
				continue
			}
			if s.minv[c] < delta || (s.minv[c] == delta && c < j1) {
				delta, j1 = s.minv[c], c
			}
		}
		if j1 < 0 {
			break // unreachable per the invariant above; guard anyway
		}
		// Dual update: settled columns and their rows absorb delta so
		// the reduced cost through every settled column stays zero;
		// unsettled tentative costs shift down to stay relative to the
		// new frontier. (A settled exit column would end the loop below
		// before any further update, so rowOf here is always a row.)
		s.u[r0] += delta
		for _, c := range touched {
			if s.used[c] {
				s.u[s.rowOf[c]] += delta
				s.v[c] -= delta
			} else {
				s.minv[c] -= delta
			}
		}
		s.used[j1] = true
		j0 = j1
		if s.rowOf[j1] < 0 {
			break // free column: augment
		}
	}
	// Augment: walk the way pointers back to r0, shifting each column
	// onto the row its predecessor column released.
	if j0 >= 0 && s.rowOf[j0] < 0 {
		for j0 >= 0 {
			jPrev := s.way[j0]
			r := r0
			if jPrev >= 0 {
				r = s.rowOf[jPrev]
			}
			s.rowOf[j0] = r
			s.colOf[r] = j0
			j0 = jPrev
		}
	}
	// Reset only what this row dirtied.
	for _, c := range touched {
		s.minv[c] = inf
		s.used[c] = false
	}
	s.touched = touched[:0]
}

// SparseHungarian solves sp on a throwaway solver — the convenience
// form for tests and offline tools; hot paths hold a SparseSolver and
// call Solve.
func SparseHungarian(sp Sparse) (Assignment, error) {
	var s SparseSolver
	colOf, weight, matched, err := s.Solve(sp)
	if err != nil {
		return Assignment{}, err
	}
	out := Assignment{ColOf: make([]int, len(colOf)), Weight: weight, Matched: matched}
	copy(out.ColOf, colOf)
	return out, nil
}
