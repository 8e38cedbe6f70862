package spatial

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// clusteredIndex loads n points into a sparse index the way a market's
// bind does: windows first, under a watermark and a horizon already
// raised, then every point at once by Load, split into two layers. The
// points crowd into a few hot spots over a thin background, so some
// cells hold hundreds and most a handful; a way home is NaN or +Inf
// now and then, and many tie.
func clusteredIndex(n int) *Index {
	rng := rand.New(rand.NewSource(50))
	box := geo.PortoBox
	ix := NewSparseIndex(geo.NewGrid(box, 158, 158), n)
	ix.Expire(5000)
	ix.AppendReachable(nil, box.Center(), 30, 20000, 5000, 5000) // raises the horizon
	hubs := [][2]float64{{0.5, 0.5}, {0.3, 0.7}, {0.8, 0.2}, {0.62, 0.41}}
	locs := make([]geo.Point, n)
	homes := make([]geo.Point, n)
	kms := make([]float64, n)
	for id := range n {
		fLat, fLon := rng.Float64(), rng.Float64()
		if k := id % 5; k < len(hubs) {
			fLat = hubs[k][0] + rng.NormFloat64()*0.02
			fLon = hubs[k][1] + rng.NormFloat64()*0.02
		}
		locs[id] = box.Lerp(fLat, fLon)
		homes[id] = box.Lerp(rng.Float64(), rng.Float64())
		switch k := rng.Intn(100); {
		case k == 0:
			kms[id] = math.NaN()
		case k == 1:
			kms[id] = math.Inf(1)
		case k < 20:
			kms[id] = float64(rng.Intn(12)) // ties
		default:
			kms[id] = rng.ExpFloat64() * 4
		}
		free := rng.Float64() * 40000
		ix.SetSpan(id, free, free+rng.Float64()*30000)
	}
	ix.Load(func(id int) (geo.Point, geo.Point, float64, int32) {
		return locs[id], homes[id], kms[id], int32(id % 977)
	}, true)
	return ix
}

// layoutDigest hashes everything Load lays out: h₀ and the far grid, every
// cell's capacity, regions and header, every entry, and every id's cell
// and slot.
func layoutDigest(ix *Index) string {
	h := sha256.New()
	var b [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	f := func(x float64) { word(math.Float64bits(x)) }
	f(ix.nearKm)
	f(ix.farSpanKm)
	if ix.far != nil {
		word(uint64(ix.far.Rows))
		word(uint64(ix.far.Cols))
	}
	word(uint64(len(ix.cells)))
	for c := range ix.cells {
		cl := &ix.cells[c]
		word(uint64(cap(cl.ents)))
		word(uint64(len(cl.ents)))
		word(uint64(cl.park))
		word(uint64(cl.live))
		if cl.sorted {
			word(1)
		} else {
			word(0)
		}
		f(cl.wakeAt)
		f(cl.expireAt)
		f(cl.maxHomeKm)
		for _, e := range cl.ents {
			f(e.PX)
			f(e.PY)
			f(e.FreeAt)
			f(e.RetireAt)
			f(e.HomeX)
			f(e.HomeY)
			f(e.HomeKm)
			word(uint64(e.ID))
			word(uint64(e.Node))
		}
	}
	for id := range ix.cell {
		word(uint64(ix.cell[id]))
		word(uint64(ix.slot[id]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadLayoutPinned pins the layout Load gives a 50 000-point
// clustered index, byte for byte: a change to how Load or its split
// computes the layout must leave every cell as it was, or say so here.
func TestLoadLayoutPinned(t *testing.T) {
	ix := clusteredIndex(50_000)
	if ix.far == nil || ix.Members() != 50_000 {
		t.Fatalf("far layer %v, %d members: the fixture is meant to load two layers", ix.far != nil, ix.Members())
	}
	var park, live, expired, most int
	for _, cl := range ix.cells {
		park += int(cl.park)
		live += int(cl.live - cl.park)
		expired += len(cl.ents) - int(cl.live)
		most = max(most, len(cl.ents))
	}
	if park == 0 || live == 0 || expired == 0 || most < 100 {
		t.Fatalf("%d parked, %d live, %d expired, at most %d a cell: the fixture is meant to fill every region and a hot spot", park, live, expired, most)
	}
	const want = "ca9ef9e865284a90dd55ea1aefbcb456a7227327947aec85dcacc7ec05d9ab4f"
	if got := layoutDigest(ix); got != want {
		t.Fatalf("layout digest %s, want %s (h₀ %g, %d cells)", got, want, ix.nearKm, len(ix.cells))
	}
}
