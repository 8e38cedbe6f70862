package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// LatencyHist is a fixed-size HDR-style histogram for latency samples.
// Values are bucketed at 1µs resolution into log2 octaves of 64 linear
// sub-buckets each, which bounds the relative quantile error at ~1.6%
// while keeping the whole structure a flat array of counters. Record is
// safe for concurrent use (atomic adds); readers (Quantile, Count, Max,
// Merge destination) must not race with writers — snapshot after the
// load completes, which is how both the bench sweep and loadgen use it.
//
// The range covers 1µs to ~4295s; larger samples clamp into the top
// bucket rather than widening the array.
type LatencyHist struct {
	counts  [latSlots]int64
	n       int64
	maxBits uint64 // math.Float64bits of the largest recorded sample
}

const (
	latUnit    = 1e-6 // seconds per count: 1µs resolution at the bottom
	latSubBits = 6
	latSub     = 1 << latSubBits // 64 linear sub-buckets per octave
	latOctaves = 26              // top of range: 128µs << 25 ≈ 4295s
	latSlots   = latSub + latOctaves*latSub
)

// Record adds one latency sample, given in seconds. Negative and NaN
// samples count as zero.
func (h *LatencyHist) Record(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		seconds = 0
	}
	atomic.AddInt64(&h.counts[latSlot(seconds)], 1)
	atomic.AddInt64(&h.n, 1)
	want := math.Float64bits(seconds)
	for {
		cur := atomic.LoadUint64(&h.maxBits)
		// Non-negative IEEE floats order the same as their bit patterns.
		if want <= cur {
			return
		}
		if atomic.CompareAndSwapUint64(&h.maxBits, cur, want) {
			return
		}
	}
}

// latSlot maps a sample in seconds to its bucket index.
func latSlot(seconds float64) int {
	u := uint64(seconds / latUnit)
	if u < latSub {
		return int(u)
	}
	o := bits.Len64(u) - latSubBits - 1
	if o >= latOctaves {
		return latSlots - 1
	}
	return o*latSub + int(u>>uint(o))
}

// latUpper returns the upper bound, in seconds, of bucket slot.
func latUpper(slot int) float64 {
	if slot < latSub {
		return float64(slot+1) * latUnit
	}
	o := slot/latSub - 1
	sub := slot % latSub
	return float64(uint64(latSub+sub+1)<<uint(o)) * latUnit
}

// Count returns the number of recorded samples.
func (h *LatencyHist) Count() int64 { return atomic.LoadInt64(&h.n) }

// Max returns the largest recorded sample in seconds (0 when empty).
func (h *LatencyHist) Max() float64 {
	return math.Float64frombits(atomic.LoadUint64(&h.maxBits))
}

// Quantile returns the q-quantile (0 < q ≤ 1) in seconds as the upper
// bound of the bucket holding the q-th sample, clamped to the observed
// maximum so the reported tail never exceeds a real sample. It returns
// 0 for an empty histogram.
func (h *LatencyHist) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	var seen int64
	for slot := 0; slot < latSlots; slot++ {
		seen += atomic.LoadInt64(&h.counts[slot])
		if seen >= target {
			up := latUpper(slot)
			if max := h.Max(); up > max {
				return max
			}
			return up
		}
	}
	return h.Max()
}

// LatencySummary is the percentile family reported by benches and
// loadgen, in milliseconds.
type LatencySummary struct {
	N      int64   `json:"n"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary snapshots the percentile family in milliseconds.
func (h *LatencyHist) Summary() LatencySummary {
	const ms = 1e3
	return LatencySummary{
		N:      h.Count(),
		P50Ms:  h.Quantile(0.50) * ms,
		P90Ms:  h.Quantile(0.90) * ms,
		P95Ms:  h.Quantile(0.95) * ms,
		P99Ms:  h.Quantile(0.99) * ms,
		P999Ms: h.Quantile(0.999) * ms,
		MaxMs:  h.Max() * ms,
	}
}
