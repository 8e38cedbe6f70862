package spatial

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geo"
)

// TestEntryIsOneCacheLine pins the layout the scan loop is built
// around: an entry is one 64-byte line, and the caller's Node sits in
// the four bytes that were padding beside ID. A field added past it
// would make every cell's scan read two lines an entry.
func TestEntryIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Entry{}); size != 64 {
		t.Fatalf("spatial.Entry is %d bytes, want 64", size)
	}
}

func randomPoints(rng *rand.Rand, n int, box geo.BoundingBox) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = box.Lerp(rng.Float64(), rng.Float64())
	}
	return pts
}

// collect is a radius query in the window form: from time 0 at
// 3 600 km/h a point reaches radiusKm kilometres by time radiusKm, and
// no point's window has been narrowed, so distance alone decides.
func collect(ix *Index, p geo.Point, radiusKm float64) []int {
	return ix.AppendReachable(nil, p, 3600, radiusKm, 0, math.Inf(-1))
}

// TestNearConservative is the index's core contract: no point within the
// query radius (true equirectangular distance) is ever missed, for grids
// of very different granularities.
func TestNearConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 300, geo.PortoBox)
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {16, 16}, {64, 64}} {
		ix := NewIndex(geo.NewGrid(geo.PortoBox, dims[0], dims[1]), pts)
		for q := 0; q < 50; q++ {
			query := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
			radius := rng.Float64() * 8 // up to ~8 km
			got := collect(ix, query, radius)
			seen := make(map[int]bool, len(got))
			for _, id := range got {
				if seen[id] {
					t.Fatalf("grid %v: id %d visited twice", dims, id)
				}
				seen[id] = true
			}
			for id, p := range pts {
				if geo.Equirectangular(p, query) <= radius && !seen[id] {
					t.Fatalf("grid %v: point %d at %.3f km missed by radius %.3f query",
						dims, id, geo.Equirectangular(p, query), radius)
				}
			}
		}
	}
}

// TestNearAfterMoves checks that a long mutation history leaves the index
// answering queries exactly like a fresh index over the final locations.
func TestNearAfterMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 200, geo.PortoBox)
	ix := NewIndex(geo.NewGrid(geo.PortoBox, 12, 12), pts)

	cur := append([]geo.Point(nil), pts...)
	for step := 0; step < 2000; step++ {
		id := rng.Intn(len(cur))
		cur[id] = geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
		ix.Move(id, cur[id], math.NaN(), -1)
	}
	fresh := NewIndex(geo.NewGrid(geo.PortoBox, 12, 12), cur)
	for q := 0; q < 40; q++ {
		query := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
		radius := rng.Float64() * 5
		got, want := collect(ix, query, radius), collect(fresh, query, radius)
		if len(got) != len(want) {
			t.Fatalf("query %d: mutated index returned %d ids, fresh %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: id sets diverge at %d: %d vs %d", q, i, got[i], want[i])
			}
		}
	}
	for id := range cur {
		if ix.Location(id) != cur[id] {
			t.Fatalf("id %d location stale", id)
		}
	}
}

// TestNearOutOfBox: points and queries outside the grid box are clamped
// into boundary cells; conservativeness must survive that.
func TestNearOutOfBox(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// A box covering only the middle of the sampled region.
	inner := geo.BoundingBox{MinLat: 41.14, MinLon: -8.64, MaxLat: 41.20, MaxLon: -8.56}
	outer := geo.PortoBox
	pts := randomPoints(rng, 250, outer)
	ix := NewIndex(geo.NewGrid(inner, 8, 8), pts)
	for q := 0; q < 60; q++ {
		query := outer.Lerp(rng.Float64(), rng.Float64())
		radius := rng.Float64() * 10
		got := collect(ix, query, radius)
		seen := make(map[int]bool, len(got))
		for _, id := range got {
			seen[id] = true
		}
		for id, p := range pts {
			if geo.Equirectangular(p, query) <= radius && !seen[id] {
				t.Fatalf("out-of-box point %d at %.3f km missed by radius %.3f query",
					id, geo.Equirectangular(p, query), radius)
			}
		}
	}
}

// TestNearReachableConservative brute-force-checks the availability
// query: any point that could truly reach the pickup in time — by
// equirectangular distance at its own (slower) speed, departing at
// max(freeAt, now), retiring late enough — must be visited.
func TestNearReachableConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 300, geo.PortoBox)
	ix := NewIndex(geo.NewGrid(geo.PortoBox, 10, 14), pts)

	free := make([]float64, len(pts))
	retire := make([]float64, len(pts))
	speed := make([]float64, len(pts))
	const maxSpeed = 60.0
	for id := range pts {
		free[id] = rng.Float64() * 3600
		retire[id] = free[id] + rng.Float64()*7200
		speed[id] = 10 + rng.Float64()*(maxSpeed-10)
		ix.SetSpan(id, free[id], retire[id])
	}

	for q := 0; q < 80; q++ {
		query := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
		now := rng.Float64() * 3600
		byTime := now + rng.Float64()*1200
		minRetire := byTime + rng.Float64()*1800

		seen := make(map[int]bool)
		ix.NearReachable(query, maxSpeed, byTime, now, minRetire, func(id int) { seen[id] = true })

		for id, p := range pts {
			if retire[id] < minRetire {
				continue
			}
			depart := free[id]
			if depart < now {
				depart = now
			}
			arrive := depart + geo.Equirectangular(p, query)/speed[id]*3600
			if arrive <= byTime && !seen[id] {
				t.Fatalf("query %d: point %d arrives %.1f <= %.1f yet was pruned", q, id, arrive, byTime)
			}
		}
	}

	// Degenerate inputs must visit nothing rather than misbehave.
	none := 0
	ix.NearReachable(geo.PortoBox.Center(), 0, 100, 0, 0, func(int) { none++ })
	ix.NearReachable(geo.PortoBox.Center(), maxSpeed, 50, 100, 0, func(int) { none++ })
	if none != 0 {
		t.Fatalf("degenerate NearReachable queries visited %d points", none)
	}
}

func TestNearDegenerate(t *testing.T) {
	pts := []geo.Point{geo.PortoBox.Center()}
	ix := NewIndex(geo.NewGrid(geo.PortoBox, 4, 4), pts)
	if got := collect(ix, geo.PortoBox.Center(), -1); len(got) != 0 {
		t.Fatalf("negative radius visited %v", got)
	}
	if got := collect(ix, geo.PortoBox.Center(), 0); len(got) != 1 {
		t.Fatalf("zero radius at the point itself visited %v, want [0]", got)
	}
	empty := NewIndex(geo.NewGrid(geo.PortoBox, 4, 4), nil)
	if empty.Len() != 0 {
		t.Fatalf("empty index Len = %d", empty.Len())
	}
	if got := collect(empty, geo.PortoBox.Center(), 100); len(got) != 0 {
		t.Fatalf("empty index visited %v", got)
	}
}

// TestRemoveAndAdd: removed points disappear from every query, re-added
// points reappear, and a churned index answers exactly like a fresh
// index over the surviving membership.
func TestRemoveAndAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 200, geo.PortoBox)
	ix := NewIndex(geo.NewGrid(geo.PortoBox, 10, 10), pts)

	present := make([]bool, len(pts))
	for i := range present {
		present[i] = true
	}
	// Churn: random removes, re-adds (sometimes at a new location) and
	// moves, then compare against a fresh sparse index of the survivors.
	for step := 0; step < 3000; step++ {
		id := rng.Intn(len(pts))
		switch {
		case present[id] && rng.Float64() < 0.5:
			ix.Remove(id)
			present[id] = false
		case !present[id]:
			pts[id] = geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
			ix.Add(id, pts[id], math.NaN(), -1)
			present[id] = true
		default:
			pts[id] = geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
			ix.Move(id, pts[id], math.NaN(), -1)
		}
	}
	fresh := NewSparseIndex(geo.NewGrid(geo.PortoBox, 10, 10), len(pts))
	want := 0
	for id, ok := range present {
		if ok {
			fresh.Add(id, pts[id], math.NaN(), -1)
			want++
		}
	}
	if ix.Members() != want {
		t.Fatalf("Members() = %d after churn, want %d", ix.Members(), want)
	}
	for q := 0; q < 60; q++ {
		query := geo.PortoBox.Lerp(rng.Float64(), rng.Float64())
		radius := rng.Float64() * 6
		got, exp := collect(ix, query, radius), collect(fresh, query, radius)
		if len(got) != len(exp) {
			t.Fatalf("query %d: churned index returned %d ids, fresh %d", q, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("query %d: id sets diverge: %v vs %v", q, got, exp)
			}
			if !present[got[i]] {
				t.Fatalf("query %d: visited removed id %d", q, got[i])
			}
		}
	}
	for id, ok := range present {
		if ix.Contains(id) != ok {
			t.Fatalf("Contains(%d) = %v, want %v", id, ix.Contains(id), ok)
		}
	}
}

// TestSpanSurvivesRemoveAdd: availability windows are per-id state, not
// per-membership — a driver who leaves the index and comes back keeps hers.
func TestSpanSurvivesRemoveAdd(t *testing.T) {
	ix := NewSparseIndex(geo.NewGrid(geo.PortoBox, 4, 4), 2)
	p := geo.PortoBox.Center()
	ix.Add(0, p, math.NaN(), -1)
	ix.SetSpan(0, 100, 200)
	ix.Remove(0)
	ix.Add(0, p, math.NaN(), -1)
	seen := 0
	// Window [100, 200): reachable for a dispatch at now=150, byTime=160.
	ix.NearReachable(p, 30, 160, 150, 200, func(int) { seen++ })
	if seen != 1 {
		t.Fatalf("point with preserved span visited %d times, want 1", seen)
	}
	seen = 0
	// retireAt 200 < minRetire 300: pruned.
	ix.NearReachable(p, 30, 160, 150, 300, func(int) { seen++ })
	if seen != 0 {
		t.Fatalf("retired point visited %d times, want 0", seen)
	}
}

func TestSparseMembershipPanics(t *testing.T) {
	ix := NewSparseIndex(geo.NewGrid(geo.PortoBox, 2, 2), 3)
	p := geo.PortoBox.Center()
	ix.Add(1, p, math.NaN(), -1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("double Add", func() { ix.Add(1, p, math.NaN(), -1) })
	mustPanic("Remove of absent id", func() { ix.Remove(0) })
	mustPanic("Move of absent id", func() { ix.Move(2, p, math.NaN(), -1) })
	mustPanic("Load into an index that holds a point", func() {
		ix.Load(func(int) (geo.Point, geo.Point, float64, int32) { return p, p, 0, -1 }, true)
	})
	mustPanic("Remove out of range", func() { ix.Remove(7) })
}

func TestMovePanicsOutOfRange(t *testing.T) {
	ix := NewIndex(geo.NewGrid(geo.PortoBox, 2, 2), randomPoints(rand.New(rand.NewSource(4)), 3, geo.PortoBox))
	defer func() {
		if recover() == nil {
			t.Fatal("Move(5) on a 3-point index did not panic")
		}
	}()
	ix.Move(5, geo.PortoBox.Center(), math.NaN(), -1)
}
