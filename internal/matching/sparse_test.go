package matching

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// randomSparse builds a random CSR instance. Continuous weights make
// the maximum-weight matching unique with probability one, which is
// what lets the tests assert assignment identity, not just weight
// equality; quantize collapses weights onto {1,2,3} to manufacture the
// degenerate ties where only weights are comparable.
func randomSparse(rng *rand.Rand, rows, cols int, density float64, quantize bool) Sparse {
	sp := Sparse{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() >= density {
				continue
			}
			w := rng.Float64()*20 - 4 // some negatives
			if quantize {
				w = float64(1 + rng.Intn(3))
			}
			sp.Col = append(sp.Col, c)
			sp.W = append(sp.W, w)
		}
		sp.RowPtr[r+1] = len(sp.Col)
	}
	return sp
}

// denseOf expands a sparse instance to the dense matrix the oracle
// solvers take, absent pairs Forbidden.
func denseOf(sp Sparse) [][]float64 {
	w := make([][]float64, sp.Rows)
	for r := range w {
		w[r] = make([]float64, sp.Cols)
		for c := range w[r] {
			w[r][c] = Forbidden
		}
		for k := sp.RowPtr[r]; k < sp.RowPtr[r+1]; k++ {
			w[r][sp.Col[k]] = sp.W[k]
		}
	}
	return w
}

// TestSparseHungarianMatchesDenseOnRandom: on random continuous
// instances across the sparsity range, the sparse kernel must agree
// with the dense Hungarian oracle in weight AND assignment — the
// optimum is unique with probability one, so any tie-break divergence
// would surface as a different ColOf.
func TestSparseHungarianMatchesDenseOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		rows := 1 + rng.Intn(9)
		cols := 1 + rng.Intn(12)
		density := 0.05 + rng.Float64()*0.95
		sp := randomSparse(rng, rows, cols, density, false)
		d, err := Hungarian(denseOf(sp))
		if err != nil {
			t.Fatal(err)
		}
		s, err := SparseHungarian(sp)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.Weight-s.Weight) > 1e-9 {
			t.Fatalf("trial %d: sparse weight %.12f vs dense %.12f\n%v", trial, s.Weight, d.Weight, denseOf(sp))
		}
		if !reflect.DeepEqual(d.ColOf, s.ColOf) {
			t.Fatalf("trial %d: sparse assignment %v vs dense %v\n%v", trial, s.ColOf, d.ColOf, denseOf(sp))
		}
		if s.Matched != d.Matched {
			t.Fatalf("trial %d: sparse matched %d vs dense %d", trial, s.Matched, d.Matched)
		}
	}
}

// TestSparseHungarianAgainstBruteForce pins the sparse kernel to the
// exhaustive optimum on small instances, independently of the dense
// implementation.
func TestSparseHungarianAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		sp := randomSparse(rng, 1+rng.Intn(6), 1+rng.Intn(6), 0.1+rng.Float64()*0.9, trial%3 == 0)
		s, err := SparseHungarian(sp)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(denseOf(sp)); math.Abs(s.Weight-want) > 1e-9 {
			t.Fatalf("trial %d: sparse %.9f != brute force %.9f on %v", trial, s.Weight, want, denseOf(sp))
		}
	}
}

// TestSparseDecomposedEqualsWholeMatrix is the exactness property of
// the sparse solve over instances that fall apart into components: on
// random sparse rectangular instances, it equals the whole-matrix
// Hungarian optimum in total weight, and — continuous
// weights making the optimum unique, so canonical tie-breaking is never
// exercised against a second optimum — is bit-identical in assignments.
func TestSparseDecomposedEqualsWholeMatrix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(14)
		cols := 1 + rng.Intn(20)
		// Low densities make many components; high make one.
		sp := randomSparse(rng, rows, cols, 0.02+rng.Float64()*0.5, false)
		d, err := Hungarian(denseOf(sp))
		if err != nil {
			return false
		}
		s, err := SparseHungarian(sp)
		if err != nil {
			return false
		}
		return math.Abs(d.Weight-s.Weight) <= 1e-9 && reflect.DeepEqual(d.ColOf, s.ColOf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// blockSparse builds a random instance of several blocks — each a random
// rows×cols sub-instance, continuous or quantized — with every block's
// rows and columns scattered through the global id spaces by a random
// permutation, plus a few columns no block touches. A block may itself
// fall apart into several components.
func blockSparse(rng *rand.Rand, quantize bool) Sparse {
	type edge struct {
		c int
		w float64
	}
	blocks := 2 + rng.Intn(5)
	var blockRows [][][]edge // block -> local row -> edges on local cols
	var blockCols []int
	nr, nc := 0, 2+rng.Intn(3)
	for b := 0; b < blocks; b++ {
		sub := randomSparse(rng, 1+rng.Intn(5), 1+rng.Intn(6), 0.2+rng.Float64()*0.8, quantize)
		rows := make([][]edge, sub.Rows)
		for r := range rows {
			for k := sub.RowPtr[r]; k < sub.RowPtr[r+1]; k++ {
				rows[r] = append(rows[r], edge{sub.Col[k], sub.W[k]})
			}
		}
		blockRows = append(blockRows, rows)
		blockCols = append(blockCols, sub.Cols)
		nr += sub.Rows
		nc += sub.Cols
	}
	rowID, colID := rng.Perm(nr), rng.Perm(nc)
	global := make([][]edge, nr)
	nextRow, nextCol := 0, 0
	for b, rows := range blockRows {
		for _, es := range rows {
			g := rowID[nextRow]
			nextRow++
			for _, e := range es {
				global[g] = append(global[g], edge{colID[nextCol+e.c], e.w})
			}
			sort.Slice(global[g], func(i, j int) bool { return global[g][i].c < global[g][j].c })
		}
		nextCol += blockCols[b]
	}
	sp := Sparse{Rows: nr, Cols: nc, RowPtr: make([]int, nr+1)}
	for r, es := range global {
		for _, e := range es {
			sp.Col = append(sp.Col, e.c)
			sp.W = append(sp.W, e.w)
		}
		sp.RowPtr[r+1] = len(sp.Col)
	}
	return sp
}

// TestSolveComponentsAlone is why the solve needs no decomposition: on
// random multi-component instances, continuous and tied, Solve over the
// whole returns bitwise what solving each component (ComponentScratch)
// alone as its own Sparse returns — the same column for every row, the
// same matched count, and a weight equal to the ascending-row fold of
// the components' matched edges, each component's own weight being the
// same fold over its rows. Rows and columns keep their relative order
// inside a component, so the tie-breaks (smallest extended column) are
// the same ones.
func TestSolveComponentsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var whole, alone SparseSolver
	var cs ComponentScratch
	multi := 0
	for trial := 0; trial < 400; trial++ {
		sp := blockSparse(rng, trial%2 == 1)
		got, weight, matched, err := whole.Solve(sp)
		if err != nil {
			t.Fatal(err)
		}
		got = append([]int(nil), got...)

		ncomp := cs.Decompose(sp)
		if ncomp > 1 {
			multi++
		}
		want := make([]int, sp.Rows)
		edgeW := make([]float64, sp.Rows) // weight of row r's matched edge
		wantMatched := 0
		for comp := 0; comp < ncomp; comp++ {
			rows := cs.RowsByComp[cs.RowPtr[comp]:cs.RowPtr[comp+1]]
			cols := cs.ColsByComp[cs.ColPtr[comp]:cs.ColPtr[comp+1]]
			local := make(map[int]int, len(cols))
			for i, c := range cols {
				local[c] = i
			}
			sub := Sparse{Rows: len(rows), Cols: len(cols), RowPtr: make([]int, len(rows)+1)}
			for i, r := range rows {
				for k := sp.RowPtr[r]; k < sp.RowPtr[r+1]; k++ {
					sub.Col = append(sub.Col, local[sp.Col[k]])
					sub.W = append(sub.W, sp.W[k])
				}
				sub.RowPtr[i+1] = len(sub.Col)
			}
			colOf, subWeight, subMatched, err := alone.Solve(sub)
			if err != nil {
				t.Fatal(err)
			}
			fold := 0.0
			for i, r := range rows {
				want[r] = -1
				if c := colOf[i]; c >= 0 {
					want[r] = cols[c]
					for k := sub.RowPtr[i]; k < sub.RowPtr[i+1]; k++ {
						if sub.Col[k] == c {
							edgeW[r] = sub.W[k]
						}
					}
					fold += edgeW[r]
				}
			}
			if fold != subWeight {
				t.Fatalf("trial %d, component %d: weight %v, its rows' fold %v", trial, comp, subWeight, fold)
			}
			wantMatched += subMatched
		}
		wantWeight := 0.0
		for r, c := range want {
			if c >= 0 {
				wantWeight += edgeW[r]
			}
		}
		if !reflect.DeepEqual(got, want) || matched != wantMatched || weight != wantWeight {
			t.Fatalf("trial %d: whole %v (matched %d, weight %v), components alone %v (%d, %v)\n%v",
				trial, got, matched, weight, want, wantMatched, wantWeight, denseOf(sp))
		}
	}
	if multi < 350 {
		t.Fatalf("only %d of 400 instances had more than one component", multi)
	}
}

// TestSparseQuantizedWeightEquality covers the degenerate tied-weight
// regime: assignments may legitimately differ between equally-optimal
// matchings, but the total weight must still match the dense optimum
// exactly.
func TestSparseQuantizedWeightEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		sp := randomSparse(rng, 1+rng.Intn(10), 1+rng.Intn(12), 0.05+rng.Float64()*0.9, true)
		d, err := Hungarian(denseOf(sp))
		if err != nil {
			t.Fatal(err)
		}
		s, err := SparseHungarian(sp)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.Weight-s.Weight) > 1e-9 {
			t.Fatalf("trial %d: sparse %.9f vs dense %.9f on tied weights\n%v", trial, s.Weight, d.Weight, denseOf(sp))
		}
	}
}

// TestSparseComponentEdgeCases fuzzes the component shapes the solve
// must not trip over: singleton tasks, drivers shared by zero tasks
// (untouched columns), rows with no candidates at all, a fully
// connected window collapsing to one component, and all-non-positive
// instances where unmatched everywhere is the optimum.
func TestSparseComponentEdgeCases(t *testing.T) {
	cases := map[string]Sparse{
		"empty": {Rows: 0, Cols: 0, RowPtr: []int{0}},
		"singletons": {
			Rows: 3, Cols: 5,
			RowPtr: []int{0, 1, 2, 3},
			Col:    []int{0, 2, 4},
			W:      []float64{5, 7, 3},
		},
		"edgeless rows": {
			Rows: 3, Cols: 2,
			RowPtr: []int{0, 0, 1, 1},
			Col:    []int{1},
			W:      []float64{2},
		},
		"untouched columns": {
			Rows: 2, Cols: 6,
			RowPtr: []int{0, 1, 2},
			Col:    []int{3, 3},
			W:      []float64{4, 9},
		},
		"fully connected": {
			Rows: 3, Cols: 3,
			RowPtr: []int{0, 3, 6, 9},
			Col:    []int{0, 1, 2, 0, 1, 2, 0, 1, 2},
			W:      []float64{1, 8, 2, 7, 3, 6, 4, 5, 9},
		},
		"all non-positive": {
			Rows: 2, Cols: 2,
			RowPtr: []int{0, 2, 4},
			Col:    []int{0, 1, 0, 1},
			W:      []float64{-1, 0, -3, -0.5},
		},
		"chain": { // r0-c0-r1-c1-r2: one snake component
			Rows: 3, Cols: 2,
			RowPtr: []int{0, 1, 3, 4},
			Col:    []int{0, 0, 1, 1},
			W:      []float64{5, 6, 2, 4},
		},
	}
	for name, sp := range cases {
		d, err := Hungarian(denseOf(sp))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var solver SparseSolver
		colOf, weight, matched, err := solver.Solve(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(weight-d.Weight) > 1e-9 {
			t.Errorf("%s: weight %.9f, dense optimum %.9f", name, weight, d.Weight)
		}
		// Normalize nil vs empty: Solve hands back a zero-length view of
		// its scratch for row-less instances.
		if matched != d.Matched || !reflect.DeepEqual(append([]int{}, colOf...), append([]int{}, d.ColOf...)) {
			t.Errorf("%s: assignment %v (matched %d), dense %v (%d)", name, colOf, matched, d.ColOf, d.Matched)
		}
	}
}

// TestSparseSolverZeroAllocSteadyState is the zero-allocation contract
// of the hot path: once the solver's scratch is warm, repeated
// solves must not touch the allocator.
func TestSparseSolverZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sp := randomSparse(rng, 12, 40, 0.15, false)
	var solver SparseSolver
	if _, _, _, err := solver.Solve(sp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, err := solver.Solve(sp); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per warm solve, want 0", allocs)
	}
}

// TestSparseValidate rejects malformed CSR structures loudly.
func TestSparseValidate(t *testing.T) {
	bad := map[string]Sparse{
		"rowptr len":     {Rows: 2, Cols: 2, RowPtr: []int{0, 1}},
		"rowptr start":   {Rows: 1, Cols: 1, RowPtr: []int{1, 1}},
		"rowptr order":   {Rows: 2, Cols: 2, RowPtr: []int{0, 2, 1}, Col: []int{0, 1}, W: []float64{1, 2}},
		"short edges":    {Rows: 1, Cols: 2, RowPtr: []int{0, 2}, Col: []int{0}, W: []float64{1}},
		"col range":      {Rows: 1, Cols: 2, RowPtr: []int{0, 1}, Col: []int{2}, W: []float64{1}},
		"col descending": {Rows: 1, Cols: 3, RowPtr: []int{0, 2}, Col: []int{2, 1}, W: []float64{1, 2}},
		"col duplicate":  {Rows: 1, Cols: 3, RowPtr: []int{0, 2}, Col: []int{1, 1}, W: []float64{1, 2}},
	}
	for name, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: invalid instance accepted", name)
		}
		var solver SparseSolver
		if _, _, _, err := solver.Solve(sp); err == nil {
			t.Errorf("%s: Solve accepted invalid instance", name)
		}
	}
	good := Sparse{Rows: 1, Cols: 2, RowPtr: []int{0, 1}, Col: []int{1}, W: []float64{3}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

// firstRanked is each row's first-ranked column: its highest positive
// weight, the lowest column on a tie, or -1 for a row with none. ties
// counts the rows whose highest positive weight is on several columns.
func firstRanked(sp Sparse) (first []int, ties int) {
	first = make([]int, sp.Rows)
	for r := range first {
		first[r] = -1
		best, at := 0.0, 0
		for k := sp.RowPtr[r]; k < sp.RowPtr[r+1]; k++ {
			switch w := sp.W[k]; {
			case w > best: // columns ascend, so > keeps the lowest of a tie
				best, at, first[r] = w, 1, sp.Col[k]
			case w == best && best > 0:
				at++
			}
		}
		if at > 1 {
			ties++
		}
	}
	return first, ties
}

// distinctColumns reports whether no column appears twice in cols,
// ignoring -1.
func distinctColumns(cols []int) bool {
	seen := map[int]bool{}
	for _, c := range cols {
		if c >= 0 && seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// TestSolveCommitsDistinctFirstRanked is the fact a batched window's
// shortcut rests on (sim's closeBatchSparse): whenever every row's
// first-ranked column is distinct, Solve returns exactly those columns.
// Weights are drawn from {-1, 0, 1, 2, 3}, so rows tie at their maximum
// and across one another; a row's tie is settled toward the lowest
// column, as augmentRow breaks frontier ties — a solver that broke them
// toward the highest would commit another optimum of the same weight
// and fail here.
func TestSolveCommitsDistinctFirstRanked(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s SparseSolver
	cases, tied := 0, 0
	for trial := 0; trial < 4000; trial++ {
		rows := 1 + rng.Intn(8)
		cols := rows + rng.Intn(12)
		sp := Sparse{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
		density := 0.1 + 0.5*rng.Float64()
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Float64() < density {
					sp.Col = append(sp.Col, c)
					sp.W = append(sp.W, float64(rng.Intn(5)-1))
				}
			}
			sp.RowPtr[r+1] = len(sp.Col)
		}
		want, ties := firstRanked(sp)
		if !distinctColumns(want) {
			continue
		}
		cases++
		tied += ties
		got, _, _, err := s.Solve(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Solve committed %v, the distinct first-ranked columns are %v\n%v", trial, got, want, denseOf(sp))
		}
	}
	if cases < 1000 || tied < 500 {
		t.Fatalf("%d instances with distinct first-ranked columns, %d rows tied at their maximum: too few to test the rule", cases, tied)
	}
	t.Logf("%d instances, %d rows tied at their maximum", cases, tied)
}

// TestSolveTieRuleByHand is one instance of that rule written out: each
// row ties at its maximum, rows 0 and 2 tie with each other, and the
// last row has no positive weight. The first-ranked columns 1, 2 and 3
// are distinct, so they are the matching, and the last row is left
// unmatched.
func TestSolveTieRuleByHand(t *testing.T) {
	sp := Sparse{Rows: 4, Cols: 5,
		RowPtr: []int{0, 3, 6, 8, 10},
		Col:    []int{1, 3, 4 /**/, 0, 2, 4 /**/, 3, 4 /**/, 0, 1},
		W:      []float64{2, 2, 1 /**/, 1, 3, 3 /**/, 2, 2 /**/, -1, 0},
	}
	var s SparseSolver
	got, weight, matched, err := s.Solve(sp)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, -1}; !slices.Equal(got, want) || weight != 7 || matched != 3 {
		t.Fatalf("Solve = %v, weight %g, %d matched; want %v, weight 7, 3 matched", got, weight, matched, want)
	}
}
