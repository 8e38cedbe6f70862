package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/trace"
)

// The tests in this file hold the bounded instant path (Ranked,
// GridSource.Contenders) to its two promises: it does less, and a
// chooser cannot tell. The differential wall sweeps it over generated
// days; here are the work count the benchmark's traced pass cannot take
// (its decorators hide the capability) and the fuzz target that aims at
// the admissibility of the bound itself.

// TestBoundedPathScoresFewer counts Market.Dist calls over one fixed
// day, indexed source both times: the full list scores every reachable
// driver, the bounded list only those whose optimistic rank reaches the
// incumbent. The count is a property of the inputs, so it must repeat
// exactly — a count that moves between runs would mean the path reads
// something other than engine state.
func TestBoundedPathScoresFewer(t *testing.T) {
	cfg := trace.NewConfig(17, 200, 5000, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	day := func(d Dispatcher) (calls int, res Result) {
		mkt := cfg.Market
		mkt.Dist = func(a, b geo.Point) float64 {
			calls++
			return cfg.Market.Dist(a, b)
		}
		e, err := New(mkt, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCandidateSource(NewGridSource(nil))
		res = e.Run(tr.Tasks, d)
		return calls, res
	}
	for _, d := range []Dispatcher{diffMaxMargin{}, diffNearest{}} {
		full, want := day(d)
		ranked := forms(d)[1]
		bounded, got := day(ranked)
		diffResults(t, ranked.Name(), want, got)
		if again, _ := day(ranked); again != bounded {
			t.Errorf("%s: %d Market.Dist calls, then %d on the same day", ranked.Name(), bounded, again)
		}
		if want.Served == 0 || full < 5*bounded {
			t.Errorf("%s: %d Market.Dist calls against the full list's %d over %d served orders; want at least 5x fewer",
				ranked.Name(), bounded, full, want.Served)
		}
		t.Logf("%s: %d calls, full list %d (%.1fx), %d orders", ranked.Name(), bounded, full, float64(full)/float64(bounded), len(tr.Tasks))
	}
}

// fuzzBox is the configured grid FuzzBoundedChoice binds, and
// fuzzMaxLat how far north of it a point may stand before polewardOf
// refuses it: the bound has to hold all the way up to there.
var (
	fuzzBox    = geo.PortoBox
	fuzzMaxLat = math.Acos(minCos(geo.NewGrid(geo.PortoBox, 1, 1))/1.05)*180/math.Pi - 1e-6
)

// fuzzInput hands out a fuzz input byte by byte, zeros once it runs
// dry. Everything is drawn from a byte, on purpose: coarse values make
// drivers stand on one another and orders start where drivers wait,
// which is where ties, zero distances and equal bounds live.
type fuzzInput []byte

func (in *fuzzInput) byte() float64 {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return float64(b)
}

// point is somewhere in the box three times out of four, else anywhere
// from 3° south of it to the poleward limit and 3° east or west.
func (in *fuzzInput) point() geo.Point {
	far, a, b := int(in.byte())%4 == 0, in.byte()/255, in.byte()/255
	if !far {
		return fuzzBox.Lerp(a, b)
	}
	return geo.Point{
		Lat: fuzzBox.MinLat - 3 + a*(fuzzMaxLat-fuzzBox.MinLat+3),
		Lon: fuzzBox.MinLon - 3 + b*(fuzzBox.MaxLon-fuzzBox.MinLon+6),
	}
}

// FuzzBoundedChoice aims at the admissibility of the bound: a small
// fleet on a handful of shared points (inside the grid's box and out to
// the polewardOf limit), arbitrary shifts and speeds, a few orders
// dispatched first so some drivers have moved and are locked, then one
// order. For both ranks the bounded list must be a sub-list of the
// scan's full one, and the chooser must take the same driver from
// either with the same number of RNG draws.
func FuzzBoundedChoice(f *testing.F) {
	f.Add([]byte{})
	f.Add(slices.Repeat([]byte{0xff}, 96))
	rng := rand.New(rand.NewSource(3))
	for range 6 {
		seed := make([]byte, 40+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		realTime := int(in.byte())%2 == 1
		spots := make([]geo.Point, 2+int(in.byte())%5)
		for i := range spots {
			spots[i] = in.point()
		}
		spot := func() geo.Point { return spots[int(in.byte())%len(spots)] }
		fleet := make([]model.Driver, 1+int(in.byte())%12)
		for i := range fleet {
			start := in.byte() * 60
			fleet[i] = model.Driver{ID: i, Source: spot(), Dest: spot(), Start: start, End: start + (1+in.byte())*120,
				SpeedKmh: []float64{0, 15, 30, 60, 120}[int(in.byte())%5]}
		}
		orders := make([]model.Task, 1+int(in.byte())%5)
		publish := 0.0
		for i := range orders {
			publish += in.byte() * 30
			startBy := publish + (1+in.byte())*60
			price := in.byte() / 8
			orders[i] = model.Task{ID: i, Publish: publish, Source: spot(), Dest: spot(),
				StartBy: startBy, EndBy: startBy + (1+in.byte())*120, Price: price, WTP: price}
		}

		e, err := New(model.DefaultMarket(), fleet, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.RealTime = realTime
		src := NewGridSource(geo.NewGrid(fuzzBox, 1+int(in.byte())%6, 1+int(in.byte())%6))
		e.SetCandidateSource(src)
		st, err := e.NewStream(diffRandom{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		last := len(orders) - 1
		for _, order := range orders[:last] {
			if _, err := st.SubmitTask(order); err != nil {
				t.Fatal(err)
			}
		}

		order := orders[last]
		full := e.candidates(order, order.Publish, nil)
		if all := src.Contenders(order, order.Publish, 0, nil); !slices.Equal(all, full) {
			t.Fatalf("a rank the source cannot bound got %+v, not the full list %+v", all, full)
		}
		for _, d := range []interface {
			Dispatcher
			Ranked
		}{rankedMaxMargin{}, rankedNearest{}} {
			bounded := src.Contenders(order, order.Publish, d.RankedBy(), nil)
			rest := full
			for _, c := range bounded {
				at := slices.Index(rest, c)
				if at < 0 {
					t.Fatalf("%s: contender %+v is not (or not in order) in the full list %+v", d.Name(), c, full)
				}
				rest = rest[at+1:]
			}
			choose := func(list []Candidate) (driver int, draws uint64) {
				counter := newCountingSource(7)
				pick := -1
				if len(list) > 0 {
					pick = d.Choose(order, list, rand.New(counter))
				}
				if pick < 0 {
					return -1, counter.n
				}
				return list[pick].Driver, counter.n
			}
			wantDriver, wantDraws := choose(full)
			gotDriver, gotDraws := choose(bounded)
			if gotDriver != wantDriver || gotDraws != wantDraws {
				t.Fatalf("%s: driver %d after %d draws from the bounded list %+v, driver %d after %d draws from the full list %+v",
					d.Name(), gotDriver, gotDraws, bounded, wantDriver, wantDraws, full)
			}
		}
	})
}
