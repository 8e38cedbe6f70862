package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Hungarian never produces an invalid structure and its weight
// dominates the simple greedy matching on every random instance.
func TestQuickHungarianDominatesGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		w := randomMatrix(rng, rows, cols, 0.25)
		asg, err := Hungarian(w)
		if err != nil {
			return false
		}
		// Greedy reference: repeatedly take the best remaining pair.
		usedR := make([]bool, rows)
		usedC := make([]bool, cols)
		var greedy float64
		for {
			br, bc := -1, -1
			best := 0.0
			for r := 0; r < rows; r++ {
				if usedR[r] {
					continue
				}
				for c := 0; c < cols; c++ {
					if usedC[c] || w[r][c] <= Forbidden {
						continue
					}
					if w[r][c] > best {
						best, br, bc = w[r][c], r, c
					}
				}
			}
			if br < 0 {
				break
			}
			usedR[br] = true
			usedC[bc] = true
			greedy += best
		}
		return asg.Weight >= greedy-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestHungarianExactOnAllTiedWeights pins the fully degenerate corner: an
// all-equal positive matrix, where every maximum matching has the same
// weight min(rows, cols)·v — dense and sparse both find one.
func TestHungarianExactOnAllTiedWeights(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 3}, {5, 2}, {2, 7}, {30, 28}} {
		rows, cols := dims[0], dims[1]
		w := make([][]float64, rows)
		sp := Sparse{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
		for r := range w {
			w[r] = make([]float64, cols)
			for c := range w[r] {
				w[r][c] = 4
				sp.Col = append(sp.Col, c)
				sp.W = append(sp.W, 4)
			}
			sp.RowPtr[r+1] = len(sp.Col)
		}
		n := min(rows, cols)
		want := float64(n) * 4
		h, err := Hungarian(w)
		if err != nil {
			t.Fatal(err)
		}
		s, err := SparseHungarian(sp)
		if err != nil {
			t.Fatal(err)
		}
		if h.Weight != want || h.Matched != n || s.Weight != want || s.Matched != n {
			t.Fatalf("%dx%d all-tied: dense %d/%.9f, sparse %d/%.9f, want %d/%.0f",
				rows, cols, h.Matched, h.Weight, s.Matched, s.Weight, n, want)
		}
	}
}
