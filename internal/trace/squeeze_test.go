package trace

import (
	"math"
	"math/rand"
	"testing"
)

// inEnvelope fails the test unless DemandIntensity(at) lies inside the
// envelope bin accept reads for at.
func inEnvelope(t *testing.T, at float64) {
	t.Helper()
	e := envelopeAt(at)
	if e == nil {
		t.Fatalf("t = %v: no envelope bin inside the day", at)
	}
	if v := DemandIntensity(at); !(e.lo <= v && v <= e.hi) {
		t.Fatalf("t = %v: DemandIntensity %v outside its bin [%v, %v]", at, v, e.lo, e.hi)
	}
}

// TestEnvelopeBoundsDemand proves the thinning bound over the whole day:
// every bin edge, one ulp either side of it, and a million random times
// fall inside the envelope, and no bin's upper bound exceeds lambdaMax,
// the majorant the thinning loops draw against.
func TestEnvelopeBoundsDemand(t *testing.T) {
	for b := 0; b <= envBins; b++ {
		edge := float64(b * envBinS)
		for _, at := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, math.Inf(1))} {
			if at >= 0 && at < 24*3600 {
				inEnvelope(t, at)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		inEnvelope(t, rng.Float64()*24*3600)
	}
	for b, e := range envelope {
		if !(e.lo <= e.hi && e.hi <= lambdaMax) {
			t.Fatalf("bin %d: [%v, %v] not a bound under lambdaMax %v", b, e.lo, e.hi, lambdaMax)
		}
	}
	for _, at := range []float64{-1, math.Nextafter(0, -1), 24 * 3600, 30 * 3600, math.NaN()} {
		if envelopeAt(at) != nil {
			t.Fatalf("t = %v outside the day has an envelope bin", at)
		}
	}
}

// TestSqueezeDecidesMost checks that the envelope is tight enough to
// matter: on the draws the thinning loops make, few need the exact
// evaluation.
func TestSqueezeDecidesMost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 100_000
	exact := 0
	for i := 0; i < n; i++ {
		at, x := rng.Float64()*24*3600, rng.Float64()*lambdaMax
		if e := envelopeAt(at); !(x > e.hi || x <= e.lo) {
			exact++
		}
	}
	if exact > n/100 {
		t.Fatalf("%d of %d draws fell between the bounds; want under 1 %%", exact, n)
	}
}

// FuzzThinningAccept holds the squeeze to the comparison it replaces:
// for any finite t and x, accept(t, x) is x ≤ DemandIntensity(t).
func FuzzThinningAccept(f *testing.F) {
	for _, s := range [][2]float64{
		{0, 0.25}, {8.5 * 3600, 1.25}, {18.5 * 3600, 2}, {59.99999999999999, 0.5},
		{60, lambdaMax}, {math.Nextafter(24*3600, 0), 0.25}, {24 * 3600, 0.25},
		{-1, 0.25}, {1e300, 0}, {13 * 3600, -1},
	} {
		f.Add(s[0], s[1])
	}
	// A draw exactly on each bound of a few bins, and one ulp past it.
	for _, b := range []int{0, 510, 1110, envBins - 1} {
		e := envelope[b]
		at := float64(b*envBinS) + envBinS/2
		for _, x := range []float64{e.lo, math.Nextafter(e.lo, 3), e.hi, math.Nextafter(e.hi, 3)} {
			f.Add(at, x)
		}
	}
	f.Fuzz(func(t *testing.T, at, x float64) {
		if math.IsNaN(at) || math.IsInf(at, 0) || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip()
		}
		if got, want := accept(at, x), x <= DemandIntensity(at); got != want {
			t.Fatalf("accept(%v, %v) = %v, DemandIntensity %v", at, x, got, DemandIntensity(at))
		}
	})
}

func BenchmarkGenerateDrivers50k(b *testing.B) {
	cfg := NewConfig(27, 0, 50_000, HomeWorkHome)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewGenerator(cfg).GenerateDrivers()
	}
}
