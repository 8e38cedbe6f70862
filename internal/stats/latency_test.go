package stats

import (
	"math"
	"sync"
	"testing"
)

func TestLatencyHistEmpty(t *testing.T) {
	var h LatencyHist
	if h.Count() != 0 {
		t.Fatalf("empty Count = %d", h.Count())
	}
	if h.Quantile(0.99) != 0 {
		t.Fatalf("empty Quantile = %g", h.Quantile(0.99))
	}
	if h.Max() != 0 {
		t.Fatalf("empty Max = %g", h.Max())
	}
	s := h.Summary()
	if s.N != 0 || s.P999Ms != 0 || s.MaxMs != 0 {
		t.Fatalf("empty Summary = %+v", s)
	}
}

func TestLatencyHistQuantileAccuracy(t *testing.T) {
	var h LatencyHist
	// Uniform 1..1000 ms, one sample each.
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i) * 1e-3)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
	checks := []struct{ q, want float64 }{
		{0.50, 0.500},
		{0.90, 0.900},
		{0.99, 0.990},
		{0.999, 0.999},
		{1.0, 1.000},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if rel := math.Abs(got-c.want) / c.want; rel > 0.02 {
			t.Errorf("Quantile(%g) = %g, want %g ± 2%%", c.q, got, c.want)
		}
	}
	if got := h.Max(); got != 1.0 {
		t.Errorf("Max = %g, want exactly 1.0", got)
	}
}

func TestLatencyHistMonotoneAndClamped(t *testing.T) {
	var h LatencyHist
	h.Record(0)
	h.Record(250e-6)
	h.Record(3e-3)
	h.Record(42e-3)
	h.Record(1.7)
	qs := []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1}
	prev := -1.0
	for _, q := range qs {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%g) = %g < previous %g: not monotone", q, v, prev)
		}
		prev = v
	}
	// The top of the distribution must be the real observed max, not a
	// bucket upper bound beyond it.
	if got := h.Quantile(1); got != 1.7 {
		t.Fatalf("Quantile(1) = %g, want clamped to max 1.7", got)
	}
}

func TestLatencyHistOutOfRange(t *testing.T) {
	var h LatencyHist
	h.Record(-5)         // negative counts as zero
	h.Record(math.NaN()) // NaN counts as zero
	h.Record(1e6)        // past the top octave: clamps, does not panic
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if got := h.Quantile(0.5); got != 1e6 && got > 1e6 {
		t.Fatalf("median of {0,0,1e6} = %g", got)
	}
	if got := h.Max(); got != 1e6 {
		t.Fatalf("Max = %g, want 1e6", got)
	}
}

func TestLatencyHistConcurrentRecord(t *testing.T) {
	var h LatencyHist
	const (
		workers = 8
		per     = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(float64(w+1) * 1e-3)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
	if max := h.Max(); math.Abs(max-8e-3) > 1e-9 {
		t.Fatalf("Max = %g, want 8ms", max)
	}
}

func TestLatencySummaryOrdered(t *testing.T) {
	var h LatencyHist
	for i := 1; i <= 5000; i++ {
		h.Record(float64(i%97+1) * 1e-4)
	}
	s := h.Summary()
	if s.N != 5000 {
		t.Fatalf("Summary N = %d", s.N)
	}
	if !(s.P50Ms <= s.P90Ms && s.P90Ms <= s.P95Ms && s.P95Ms <= s.P99Ms &&
		s.P99Ms <= s.P999Ms && s.P999Ms <= s.MaxMs) {
		t.Fatalf("summary percentiles not ordered: %+v", s)
	}
	if s.P50Ms <= 0 {
		t.Fatalf("P50Ms = %g, want > 0", s.P50Ms)
	}
}

func TestLatencySlotRoundTrip(t *testing.T) {
	// Every sample must land in a bucket whose upper bound is ≥ the
	// sample; above the 64µs linear region the bucket is within ~1.6%
	// (one sub-bucket) of the sample, below it within 1µs absolute.
	for _, sec := range []float64{1e-6, 63e-6, 64e-6, 65e-6, 1e-3, 17e-3, 0.999, 1, 60, 3600} {
		slot := latSlot(sec)
		up := latUpper(slot)
		if up < sec {
			t.Errorf("latUpper(latSlot(%g)) = %g < sample", sec, up)
		}
		if sec < 64e-6 {
			if up-sec > 1.000001e-6 {
				t.Errorf("bucket for %g too wide: upper %g", sec, up)
			}
		} else if rel := (up - sec) / sec; rel > 0.033 {
			t.Errorf("bucket for %g too wide: upper %g (rel %g)", sec, up, rel)
		}
	}
}
