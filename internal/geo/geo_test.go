package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// porto and lisbon anchor real-world distance checks.
var (
	porto  = Point{Lat: 41.1496, Lon: -8.6109}
	lisbon = Point{Lat: 38.7223, Lon: -9.1393}
)

func TestHaversineKnownDistance(t *testing.T) {
	// Porto–Lisbon is roughly 274 km great-circle.
	d := Haversine(porto, lisbon)
	if d < 265 || d > 285 {
		t.Fatalf("Haversine(Porto, Lisbon) = %.1f km, want ≈ 274", d)
	}
}

func TestHaversineZero(t *testing.T) {
	if d := Haversine(porto, porto); d != 0 {
		t.Fatalf("Haversine(p, p) = %g, want 0", d)
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clampLat(lat1), Lon: clampLon(lon1)}
		b := Point{Lat: clampLat(lat2), Lon: clampLon(lon2)}
		return math.Abs(Haversine(a, b)-Haversine(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		a := randomPointIn(rng, PortoBox)
		b := randomPointIn(rng, PortoBox)
		c := randomPointIn(rng, PortoBox)
		if Haversine(a, c) > Haversine(a, b)+Haversine(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestEquirectangularMatchesHaversineAtCityScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a := randomPointIn(rng, PortoBox)
		b := randomPointIn(rng, PortoBox)
		h := Haversine(a, b)
		e := Equirectangular(a, b)
		if h > 0.1 && math.Abs(h-e)/h > 0.01 {
			t.Fatalf("equirectangular error %.3f%% at %v→%v (h=%.4f e=%.4f)",
				100*math.Abs(h-e)/h, a, b, h, e)
		}
	}
}

func TestPointValid(t *testing.T) {
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
		{Point{0, math.NaN()}, false},
	}
	for _, tc := range tests {
		if got := tc.p.Valid(); got != tc.want {
			t.Errorf("%v.Valid() = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{Lat: 41.1, Lon: -8.6}).String(); got != "(41.10000, -8.60000)" {
		t.Errorf("String() = %q", got)
	}
}

func TestMidpoint(t *testing.T) {
	m := Midpoint(Point{0, 0}, Point{2, 4})
	if m.Lat != 1 || m.Lon != 2 {
		t.Fatalf("Midpoint = %v, want (1, 2)", m)
	}
}

func TestBoundingBoxContains(t *testing.T) {
	if !PortoBox.Contains(porto) {
		t.Error("PortoBox should contain central Porto")
	}
	if PortoBox.Contains(lisbon) {
		t.Error("PortoBox should not contain Lisbon")
	}
	if !PortoBox.Contains(PortoBox.Center()) {
		t.Error("box should contain its own center")
	}
}

func TestBoundingBoxValid(t *testing.T) {
	if !PortoBox.Valid() {
		t.Error("PortoBox should be valid")
	}
	bad := BoundingBox{MinLat: 1, MaxLat: 0, MinLon: 0, MaxLon: 1}
	if bad.Valid() {
		t.Error("inverted box should be invalid")
	}
}

func TestBoundingBoxDimensions(t *testing.T) {
	// PortoBox spans 0.15° lat ≈ 16.7 km, 0.20° lon ≈ 16.7 km at 41°N.
	if h := PortoBox.HeightKm(); h < 15 || h > 18 {
		t.Errorf("HeightKm = %.2f, want ≈ 16.7", h)
	}
	if w := PortoBox.WidthKm(); w < 15 || w > 18 {
		t.Errorf("WidthKm = %.2f, want ≈ 16.7", w)
	}
}

func TestBoundingBoxClamp(t *testing.T) {
	in := PortoBox.Clamp(lisbon)
	if !PortoBox.Contains(in) {
		t.Fatalf("clamped point %v outside box", in)
	}
	// A point already inside is unchanged.
	if got := PortoBox.Clamp(porto); got != porto {
		t.Fatalf("Clamp moved interior point: %v", got)
	}
}

func TestBoundingBoxLerpCorners(t *testing.T) {
	sw := PortoBox.Lerp(0, 0)
	ne := PortoBox.Lerp(1, 1)
	if sw.Lat != PortoBox.MinLat || sw.Lon != PortoBox.MinLon {
		t.Errorf("Lerp(0,0) = %v, want SW corner", sw)
	}
	if ne.Lat != PortoBox.MaxLat || ne.Lon != PortoBox.MaxLon {
		t.Errorf("Lerp(1,1) = %v, want NE corner", ne)
	}
}

func TestOffsetDistanceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		p := randomPointIn(rng, PortoBox)
		bearing := rng.Float64() * 2 * math.Pi
		dist := rng.Float64() * 20
		q := Offset(p, bearing, dist)
		got := Haversine(p, q)
		if math.Abs(got-dist) > 0.02*dist+0.001 {
			t.Fatalf("Offset %v by %.2f km: measured %.4f km", p, dist, got)
		}
	}
}

func TestOffsetCardinalDirections(t *testing.T) {
	p := porto
	north := Offset(p, 0, 5)
	if north.Lat <= p.Lat || math.Abs(north.Lon-p.Lon) > 1e-9 {
		t.Errorf("north offset moved to %v", north)
	}
	east := Offset(p, math.Pi/2, 5)
	if east.Lon <= p.Lon || math.Abs(east.Lat-p.Lat) > 1e-9 {
		t.Errorf("east offset moved to %v", east)
	}
	south := Offset(p, math.Pi, 5)
	if south.Lat >= p.Lat {
		t.Errorf("south offset moved to %v", south)
	}
}

func clampLat(v float64) float64 {
	return math.Mod(math.Abs(v), 180) - 90
}

func clampLon(v float64) float64 {
	return math.Mod(math.Abs(v), 360) - 180
}

func randomPointIn(rng *rand.Rand, b BoundingBox) Point {
	return b.Lerp(rng.Float64(), rng.Float64())
}

// TestEquirectangularSqAtBrackets: over random bands of latitude —
// narrow and wide, astride the equator and up against a pole — and
// random pairs inside each, the planar square under the band's least
// cosine is at most Equirectangular², and under its greatest (1 when the
// band holds the equator) at least, to within the 1e-9 a caller allows;
// and under the pair's own mean-latitude cosine it is the exact square
// to a few ulps.
func TestEquirectangularSqAtBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		lo := -90 + 180*rng.Float64()
		hi := math.Min(90, lo+math.Pow(10, -3+4*rng.Float64())) // 0.001° to 10°
		cosLo := math.Min(CosLat(lo), CosLat(hi))
		cosHi := math.Max(CosLat(lo), CosLat(hi))
		if lo <= 0 && hi >= 0 {
			cosHi = 1
		}
		for i := 0; i < 20; i++ {
			a := Point{Lat: lo + (hi-lo)*rng.Float64(), Lon: -180 + 360*rng.Float64()}
			b := Point{Lat: lo + (hi-lo)*rng.Float64(), Lon: a.Lon + (rng.Float64()-0.5)*math.Pow(10, -6+7*rng.Float64())}
			d := Equirectangular(a, b)
			if lower := EquirectangularSqAt(a, b, cosLo); lower*(1-1e-9) > d*d {
				t.Fatalf("band [%v, %v], %v–%v: lower bound %v above the exact square %v", lo, hi, a, b, lower, d*d)
			}
			if upper := EquirectangularSqAt(a, b, cosHi); upper*(1+1e-9) < d*d {
				t.Fatalf("band [%v, %v], %v–%v: upper bound %v below the exact square %v", lo, hi, a, b, upper, d*d)
			}
			if at := EquirectangularSqAt(a, b, CosLat((a.Lat+b.Lat)/2)); math.Abs(at-d*d) > 1e-14*d*d {
				t.Fatalf("%v–%v: square under the mean-latitude cosine %v, exact %v", a, b, at, d*d)
			}
		}
	}
}
