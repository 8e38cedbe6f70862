package spatial

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/heap"
)

// heapNearKm is how split found h₀ before it selected it: the least of
// the k longest ways home kept on a min-heap. It reports h₀ and whether
// any point lies beyond it (two layers).
func heapNearKm(kms []float64) (float64, bool) {
	k := len(kms)/10 + 1
	top := make([]float64, 0, k)
	for _, km := range kms {
		switch km := orInf(km); {
		case len(top) < k:
			heap.Push(&top, km, cmp.Less[float64])
		case km > top[0]:
			top[0] = km
			heap.Fix(top, 0, cmp.Less[float64])
		}
	}
	if slices.Max(top) == top[0] {
		return math.Inf(1), false
	}
	return top[0], true
}

// splitOf runs split over ways home kms and reports h₀ and whether it
// laid out a far layer.
func splitOf(kms []float64) (float64, bool) {
	ix := NewSparseIndex(geo.NewGrid(geo.PortoBox, 4, 4), len(kms))
	homes := make([][3]float64, len(kms))
	for i, km := range kms {
		homes[i][2] = km
	}
	ix.split(homes, true)
	return ix.NearKm(), ix.far != nil
}

// TestSplitMatchesHeap holds split's selected h₀ to the heap's, bit for
// bit, over ways home drawn from pools that tie, hold ±Inf and NaN (read
// as +Inf), and over fleets of ten points or fewer (k = 1, so never two
// layers) and fleets with no point beyond h₀.
func TestSplitMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inf, nan := math.Inf(1), math.NaN()
	pools := [][]float64{
		{1, 2, 3},
		{0, 5, inf},
		{nan, 4, 4, 4, 7},
		{math.Inf(-1), 0, 1, nan},
		{inf},
		{nan},
		{2.5},
	}
	draw := func(n int, pool []float64) []float64 {
		kms := make([]float64, n)
		for i := range kms {
			if pool == nil {
				kms[i] = rng.ExpFloat64() * 5
			} else {
				kms[i] = pool[rng.Intn(len(pool))]
			}
		}
		return kms
	}
	// check reports whether split made a far layer.
	check := func(kms []float64) bool {
		t.Helper()
		want, wantFar := heapNearKm(kms)
		got, gotFar := splitOf(kms)
		if math.Float64bits(got) != math.Float64bits(want) || gotFar != wantFar {
			t.Fatalf("%d ways home: h₀ %g (far %v), the heap's %g (far %v)", len(kms), got, gotFar, want, wantFar)
		}
		return gotFar
	}
	var layered, single int
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		if trial%10 == 0 {
			n = 1 + rng.Intn(3000)
		}
		var pool []float64
		if p := rng.Intn(len(pools) + 2); p < len(pools) {
			pool = pools[p]
		}
		kms := draw(n, pool)
		if trial%7 == 0 {
			slices.Sort(kms) // orders that defeat a naive pivot
			if trial%14 == 0 {
				slices.Reverse(kms)
			}
		}
		if check(kms) {
			layered++
		} else {
			single++
		}
	}
	if layered < 500 || single < 500 {
		t.Fatalf("%d fleets in two layers, %d in one: the draws are meant to give plenty of both", layered, single)
	}
	for n := 1; n <= 10; n++ {
		if check(draw(n, nil)) && n < 10 {
			t.Fatalf("%d ways home in two layers: k is 1, so none lies beyond h₀", n)
		}
	}
	// 91 of 100 tie at the top, so the 11 longest are all h₀ and none
	// lies beyond it.
	tied := append(slices.Repeat([]float64{1}, 9), slices.Repeat([]float64{8}, 91)...)
	rng.Shuffle(len(tied), func(i, j int) { tied[i], tied[j] = tied[j], tied[i] })
	if check(tied) {
		t.Fatal("the longest ways home all tie at h₀, yet split made a far layer")
	}
}

// TestNthSelects holds nth to a sort, whatever its round budget: with
// none left it sorts outright. It always leaves a permutation of its
// input, with nothing greater before the rank and nothing less after it
// (split reads the longest way home off the values after it).
func TestNthSelects(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		a := make([]float64, 1+rng.Intn(200))
		for i := range a {
			a[i] = float64(rng.Intn(1 + trial%50))
		}
		a[rng.Intn(len(a))] = math.Inf(1 - 2*(trial%2))
		sorted := slices.Sorted(slices.Values(a))
		r, rounds := rng.Intn(len(a)), trial%6
		if got := nth(a, r, rounds); got != sorted[r] || a[r] != got {
			t.Fatalf("rank %d of %d with %d rounds: %g, a sort gives %g", r, len(a), rounds, got, sorted[r])
		}
		if !slices.Equal(slices.Sorted(slices.Values(a)), sorted) {
			t.Fatalf("nth changed the values it was given")
		}
		if (r > 0 && slices.Max(a[:r]) > a[r]) || (r+1 < len(a) && slices.Min(a[r+1:]) < a[r]) {
			t.Fatalf("rank %d of %d with %d rounds: %v is not partitioned about it", r, len(a), rounds, a)
		}
	}
}
