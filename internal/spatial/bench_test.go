package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// Micro-benchmarks for the ring queries on the candidate-generation hot
// path: NearReachable (radius plus availability pruning), at fleet sizes
// where the bucketed expansion either touches a handful of cells or
// degenerates toward a scan. CI runs these at -benchtime 1x as a bit-rot
// smoke.

// benchIndex builds an index of n points spread over the Porto box,
// with availability windows staggered so NearReachable prunes roughly
// half the fleet at the benchmark query times.
func benchIndex(n int) (*Index, []geo.Point) {
	rng := rand.New(rand.NewSource(5))
	box := geo.PortoBox
	grid := geo.NewGrid(box, 64, 64)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
			Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
		}
	}
	ix := NewIndex(grid, pts)
	for i := range pts {
		start := rng.Float64() * 43200
		ix.SetSpan(i, start, start+4*3600)
	}
	queries := make([]geo.Point, 256)
	for i := range queries {
		queries[i] = geo.Point{
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
			Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
		}
	}
	return ix, queries
}

func BenchmarkRingQueries(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		ix, queries := benchIndex(n)
		b.Run(fmt.Sprintf("near-reachable/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				now := float64(i%86400) / 86400 * 43200
				ix.NearReachable(q, 30, now+300, now, now, func(int) { hits++ })
			}
			_ = hits
		})
	}
}

// BenchmarkIndexDay is the benchmark with transitions in it, which the
// ring queries above have none of after their first lap: 50 000 points
// drawn as a fleet stands — four in five around a few hot spots, so that
// the cells a query comes to hold tens of entries, not the grid's mean
// of two — on shifts staggered over the day, and one day of 1 000
// decisions: the clock advances (Expire), a Reachable walk takes the
// nearest entry its predicate accepts and leaves off at the first ring
// that cannot hold a nearer one, and that entry is driven to the pickup
// and locked for 25 minutes (Move, SetSpan: a park into a cell that is,
// by then, sorted). It reports the time of one such query and what the
// index did for it — fewer transitions than the 100 a query the clock
// makes due, since a cell the walk does not reach is not settled. The
// index is built outside the timer, and every pickup's cell given room
// for its arrivals there (a placeholder added and removed), so the day
// allocates nothing.
func BenchmarkIndexDay(b *testing.B) {
	const n, queries = 50_000, 1000
	rng := rand.New(rand.NewSource(6))
	box := geo.PortoBox
	spots := randomPoints(rng, 5, box)
	draw := func() geo.Point {
		if rng.Intn(5) == 0 {
			return box.Lerp(rng.Float64(), rng.Float64())
		}
		s := spots[rng.Intn(len(spots))]
		return geo.Point{Lat: s.Lat + rng.NormFloat64()*0.004, Lon: s.Lon + rng.NormFloat64()*0.005}
	}
	pts, starts, pickups := make([]geo.Point, n), make([]float64, n), make([]geo.Point, queries)
	for i := range pts {
		pts[i], starts[i] = draw(), rng.Float64()*72000
	}
	for i := range pickups {
		pickups[i] = draw()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := NewSparseIndex(geo.NewGrid(box, 158, 158), n+queries)
		for id, p := range pts {
			ix.SetSpan(id, starts[id], starts[id]+4*3600)
			ix.Add(id, p, math.NaN(), -1)
		}
		for q, at := range pickups {
			ix.Add(n+q, at, math.NaN(), -1)
		}
		for q := range pickups {
			ix.Remove(n + q)
		}
		b.StartTimer()
		for q, at := range pickups {
			now := float64(q) * 86400 / queries
			ix.Expire(now)
			first, bestSq := -1, math.Inf(1)
			for c := ix.Reachable(at, 40, now+600, now, now+1800); c.Next() && c.RingKm() <= Safety*math.Sqrt(bestSq); {
				ents := c.Entries()
				for k := range ents {
					if distSq, ok := c.Reach(&ents[k]); ok && distSq < bestSq {
						first, bestSq = int(ents[k].ID), distSq
					}
				}
			}
			if first >= 0 {
				ix.Move(first, at, math.NaN(), -1)
				ix.SetSpan(first, now+1500, starts[first]+4*3600)
			}
		}
		st = ix.Stats()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*queries), "ns/query")
	b.ReportMetric(float64(st.Woken+st.Expired)/queries, "transitions/query")
	b.ReportMetric(float64(st.Shifted)/queries, "shifted/query")
}
