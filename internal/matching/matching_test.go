package matching

import (
	"math"
	"math/rand"
	"testing"
)

func TestHungarianSimple(t *testing.T) {
	// Classic 2x2: diagonal is optimal.
	w := [][]float64{
		{10, 3},
		{3, 10},
	}
	asg, err := Hungarian(w)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Weight != 20 || asg.ColOf[0] != 0 || asg.ColOf[1] != 1 {
		t.Fatalf("got %+v, want diagonal weight 20", asg)
	}
}

func TestHungarianPrefersWeightOverCount(t *testing.T) {
	// One heavy match must beat two light ones.
	w := [][]float64{
		{10, 3},
		{3, Forbidden},
	}
	asg, err := Hungarian(w)
	if err != nil {
		t.Fatal(err)
	}
	// Options: {A-X}=10, or {A-Y, B-X}=6. Max weight is 10.
	if math.Abs(asg.Weight-10) > 1e-9 {
		t.Fatalf("weight = %g, want 10 (weight beats cardinality)", asg.Weight)
	}
	if asg.ColOf[0] != 0 || asg.ColOf[1] != -1 {
		t.Fatalf("assignment %v, want row 0 → col 0 only", asg.ColOf)
	}
}

func TestHungarianForbiddenRespected(t *testing.T) {
	w := [][]float64{
		{Forbidden, 5},
		{7, Forbidden},
	}
	asg, err := Hungarian(w)
	if err != nil {
		t.Fatal(err)
	}
	if asg.ColOf[0] != 1 || asg.ColOf[1] != 0 {
		t.Fatalf("assignment %v violates forbidden pairs", asg.ColOf)
	}
	if asg.Weight != 12 {
		t.Fatalf("weight = %g, want 12", asg.Weight)
	}
}

func TestHungarianSkipsNonPositive(t *testing.T) {
	w := [][]float64{
		{-2, -5},
		{0, -1},
	}
	asg, err := Hungarian(w)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Matched != 0 || asg.Weight != 0 {
		t.Fatalf("non-positive weights matched: %+v", asg)
	}
}

func TestHungarianRectangular(t *testing.T) {
	// More rows than columns and vice versa.
	tall := [][]float64{{5}, {8}, {2}}
	asg, err := Hungarian(tall)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Matched != 1 || asg.ColOf[1] != 0 {
		t.Fatalf("tall: %+v, want only row 1 matched", asg)
	}
	wide := [][]float64{{5, 8, 2}}
	asg, err = Hungarian(wide)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Matched != 1 || asg.ColOf[0] != 1 {
		t.Fatalf("wide: %+v, want col 1", asg)
	}
}

func TestHungarianEmpty(t *testing.T) {
	asg, err := Hungarian(nil)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Matched != 0 {
		t.Fatalf("empty: %+v", asg)
	}
}

func TestHungarianRaggedRejected(t *testing.T) {
	if _, err := Hungarian([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

// bruteForce enumerates all matchings (rows ≤ ~8) for the reference
// optimum, skipping forbidden and non-positive pairs.
func bruteForce(w [][]float64) float64 {
	rows := len(w)
	if rows == 0 {
		return 0
	}
	cols := len(w[0])
	usedCol := make([]bool, cols)
	var rec func(r int) float64
	rec = func(r int) float64 {
		if r == rows {
			return 0
		}
		best := rec(r + 1) // leave row r unmatched
		for c := 0; c < cols; c++ {
			if usedCol[c] || w[r][c] <= Forbidden || w[r][c] <= 0 {
				continue
			}
			usedCol[c] = true
			if v := w[r][c] + rec(r+1); v > best {
				best = v
			}
			usedCol[c] = false
		}
		return best
	}
	return rec(0)
}

func randomMatrix(rng *rand.Rand, rows, cols int, forbidFrac float64) [][]float64 {
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			if rng.Float64() < forbidFrac {
				w[r][c] = Forbidden
			} else {
				w[r][c] = rng.Float64()*20 - 4 // some negatives
			}
		}
	}
	return w
}

func TestHungarianAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		w := randomMatrix(rng, rows, cols, 0.3)
		asg, err := Hungarian(w)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(w)
		if math.Abs(asg.Weight-want) > 1e-9 {
			t.Fatalf("trial %d: Hungarian %.9f != brute force %.9f on %v", trial, asg.Weight, want, w)
		}
		assertValid(t, w, asg)
	}
}

// assertValid checks structural invariants: no column reused, no
// forbidden or non-positive matches, weight adds up.
func assertValid(t *testing.T, w [][]float64, asg Assignment) {
	t.Helper()
	usedCol := make(map[int]bool)
	var sum float64
	matched := 0
	for r, c := range asg.ColOf {
		if c < 0 {
			continue
		}
		if usedCol[c] {
			t.Fatalf("column %d matched twice", c)
		}
		usedCol[c] = true
		if w[r][c] <= Forbidden {
			t.Fatalf("forbidden pair (%d,%d) matched", r, c)
		}
		if w[r][c] <= 0 {
			t.Fatalf("non-positive pair (%d,%d)=%g matched", r, c, w[r][c])
		}
		sum += w[r][c]
		matched++
	}
	if math.Abs(sum-asg.Weight) > 1e-9 {
		t.Fatalf("weight %.9f != sum of matches %.9f", asg.Weight, sum)
	}
	if matched != asg.Matched {
		t.Fatalf("Matched = %d, counted %d", asg.Matched, matched)
	}
}
