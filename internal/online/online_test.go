package online

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

func cands(vals ...[2]float64) []sim.Candidate {
	out := make([]sim.Candidate, len(vals))
	for i, v := range vals {
		out[i] = sim.Candidate{Driver: i, Arrival: v[0], Margin: v[1]}
	}
	return out
}

func TestNearestPicksEarliestArrival(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := Nearest{}.Choose(model.Task{}, cands([2]float64{30, 1}, [2]float64{10, -5}, [2]float64{20, 9}), rng)
	if got != 1 {
		t.Fatalf("Nearest chose %d, want 1 (earliest arrival, ignoring margin)", got)
	}
}

func TestNearestTieBreaksUniformly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	counts := make(map[int]int)
	tied := cands([2]float64{10, 0}, [2]float64{10, 0}, [2]float64{10, 0})
	for i := 0; i < 3000; i++ {
		counts[Nearest{}.Choose(model.Task{}, tied, rng)]++
	}
	for c := 0; c < 3; c++ {
		if counts[c] < 800 || counts[c] > 1200 {
			t.Fatalf("tie-break counts %v not ≈ uniform", counts)
		}
	}
}

func TestNearestEmptyCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := (Nearest{}).Choose(model.Task{}, nil, rng); got != -1 {
		t.Fatalf("empty candidates: got %d, want -1", got)
	}
}

func TestMaxMarginPicksLargestMargin(t *testing.T) {
	got := MaxMargin{}.Choose(model.Task{}, cands([2]float64{5, 1}, [2]float64{50, 7}, [2]float64{10, 3}), nil)
	if got != 1 {
		t.Fatalf("MaxMargin chose %d, want 1 (largest δ, ignoring arrival)", got)
	}
}

func TestMaxMarginRejectsNonPositiveByDefault(t *testing.T) {
	neg := cands([2]float64{5, -2}, [2]float64{6, -1})
	if got := (MaxMargin{}).Choose(model.Task{}, neg, nil); got != -1 {
		t.Fatalf("default MaxMargin accepted a negative margin: %d", got)
	}
}

// TestMaxMarginOneRule holds Choose to the rule of sim.RankMargin: the
// first of the greatest positive margins, or a rejection. A NaN margin
// is not positive, wherever it stands — first, it would otherwise win,
// since no margin compares greater than it.
func TestMaxMarginOneRule(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		list []sim.Candidate
		want int
	}{
		{"NaN first", cands([2]float64{5, nan}, [2]float64{6, 3}), 1},
		{"NaN between", cands([2]float64{5, 2}, [2]float64{6, nan}, [2]float64{7, 3}), 2},
		{"only NaN", cands([2]float64{5, nan}), -1},
		{"none positive", cands([2]float64{5, -2}, [2]float64{6, 0}, [2]float64{7, -0.5}), -1},
		{"first of equal", cands([2]float64{5, -1}, [2]float64{6, 4}, [2]float64{7, 4}), 1},
		{"empty", nil, -1},
	} {
		if got := (MaxMargin{}).Choose(model.Task{}, tc.list, nil); got != tc.want {
			t.Errorf("%s: MaxMargin chose %d from %+v, want %d", tc.name, got, tc.list, tc.want)
		}
	}
}

func TestMaxMarginZeroMarginRejected(t *testing.T) {
	zero := cands([2]float64{5, 0})
	if got := (MaxMargin{}).Choose(model.Task{}, zero, nil); got != -1 {
		t.Fatalf("δ = 0 must be rejected under individual rationality, got %d", got)
	}
}

func TestRandomStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := cands([2]float64{1, 1}, [2]float64{2, 2})
	for i := 0; i < 100; i++ {
		got := Random{}.Choose(model.Task{}, cs, rng)
		if got < 0 || got >= len(cs) {
			t.Fatalf("Random chose %d out of range", got)
		}
	}
	if got := (Random{}).Choose(model.Task{}, nil, rng); got != -1 {
		t.Fatalf("Random on empty candidates: %d, want -1", got)
	}
}

// TestNames also holds each dispatcher to its rank: Random's uniform
// draw depends on the whole list, so it must name none and be handed all
// of it.
func TestNames(t *testing.T) {
	for _, tc := range []struct {
		d    sim.Dispatcher
		want string
		rank sim.Rank
	}{
		{Nearest{}, "Nearest", sim.RankArrival},
		{MaxMargin{}, "maxMargin", sim.RankMargin},
		{Random{}, "Random", 0},
	} {
		if got := tc.d.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
		if got := tc.d.RankedBy(); got != tc.rank {
			t.Errorf("%s: RankedBy() = %d, want %d", tc.want, got, tc.rank)
		}
	}
}

// TestMaxMarginBeatsNearestOnProfit is the paper's central online claim
// (§VI-B): the maxMargin heuristic earns more total profit than Nearest
// on realistic traces. Individual seeds are noisy, so the claim is
// asserted on the aggregate over several seeds.
func TestMaxMarginBeatsNearestOnProfit(t *testing.T) {
	var mmTotal, nrTotal float64
	const trials = 8
	for seed := int64(0); seed < trials; seed++ {
		cfg := trace.NewConfig(seed, 150, 20, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		eng, err := sim.New(cfg.Market, tr.Drivers, seed)
		if err != nil {
			t.Fatal(err)
		}
		mmTotal += eng.RunScenario(tr.Tasks, nil, MaxMargin{}).TotalProfit
		nrTotal += eng.RunScenario(tr.Tasks, nil, Nearest{}).TotalProfit
	}
	if mmTotal < nrTotal {
		t.Fatalf("maxMargin aggregate profit %.1f below Nearest %.1f", mmTotal, nrTotal)
	}
}

// TestMaxMarginNeverNegativeDriverProfit: with the IR-enforcing default,
// no driver should end the day with negative profit.
func TestMaxMarginNeverNegativeDriverProfit(t *testing.T) {
	cfg := trace.NewConfig(11, 200, 25, trace.HomeWorkHome)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunScenario(tr.Tasks, nil, MaxMargin{})
	for i, p := range res.PerDriverProfit {
		if p < -1e-6 {
			t.Fatalf("driver %d profit %.6f < 0 under IR-enforcing maxMargin", i, p)
		}
	}
	if res.TotalProfit < 0 {
		t.Fatalf("total profit %.6f < 0", res.TotalProfit)
	}
}

// TestNearestServesAtLeastAsManyEarly: Nearest is greedy on service
// speed; sanity-check it serves a similar task count (not profit).
func TestNearestServeRateReasonable(t *testing.T) {
	cfg := trace.NewConfig(21, 150, 25, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	nr := eng.RunScenario(tr.Tasks, nil, Nearest{})
	if nr.ServeRate() < 0.2 {
		t.Fatalf("Nearest serve rate %.2f unreasonably low", nr.ServeRate())
	}
	if math.IsNaN(nr.TotalProfit) {
		t.Fatal("NaN profit")
	}
}

// tieSpy is a dispatcher that names no rank, so it is handed the full
// lists, and watches them: how many had their best arrival, or their
// best margin, shared by more than one candidate.
type tieSpy struct {
	sim.Dispatcher
	arrivalTies, marginTies *int
}

func (tieSpy) RankedBy() sim.Rank { return 0 }

func (s tieSpy) Choose(task model.Task, cands []sim.Candidate, rng *rand.Rand) int {
	if len(cands) > 0 {
		minArrival, maxMargin := cands[0].Arrival, cands[0].Margin
		for _, c := range cands {
			minArrival, maxMargin = min(minArrival, c.Arrival), max(maxMargin, c.Margin)
		}
		atMin, atMax := 0, 0
		for _, c := range cands {
			if c.Arrival == minArrival {
				atMin++
			}
			if c.Margin == maxMargin {
				atMax++
			}
		}
		if atMin > 1 {
			*s.arrivalTies++
		}
		if atMax > 1 {
			*s.marginTies++
		}
	}
	return s.Dispatcher.Choose(task, cands, rng)
}

// TestBoundedChoiceKeepsTies builds the day the generated ones never
// hit. Every third driver waits on one spot with one home and one speed
// — exact arrival ties and exact margin ties among them — and the ids
// between belong to drivers scattered a few kilometres around, who rank
// below the stack and are what the bounded path skips: each stack
// member after the first ties with the incumbent across a skipped
// range. Half the orders start on the stack's spot and end at its home,
// where both of a stack member's lower bounds are 0 and exact, so her
// optimistic rank equals the incumbent's to the bit — the case a skip
// test written with <= would lose. The bounded index must settle the
// scan's books and leave the RNG where the scan left it.
func TestBoundedChoiceKeepsTies(t *testing.T) {
	spot := geo.Point{Lat: 41.15, Lon: -8.61}
	home := geo.Point{Lat: 41.17, Lon: -8.60}
	rng := rand.New(rand.NewSource(4))
	near := func(p geo.Point) geo.Point {
		return geo.Point{Lat: p.Lat + (rng.Float64()-0.5)*0.06, Lon: p.Lon + (rng.Float64()-0.5)*0.06}
	}
	var fleet []model.Driver
	for i := 0; i < 45; i++ {
		d := model.Driver{ID: i, Source: spot, Dest: home, Start: 0, End: 40000}
		if i%3 != 1 {
			d.Source, d.Dest = near(spot), near(home)
		}
		fleet = append(fleet, d)
	}
	var orders []model.Task
	for i := 0; i < 40; i++ {
		at := 600 + 90*float64(i)
		o := model.Task{ID: i, Publish: at, Source: spot, Dest: home, StartBy: at + 900, EndBy: at + 4500, Price: 9, WTP: 9}
		if i%2 == 1 {
			o.Source, o.Dest = near(spot), near(home)
		}
		orders = append(orders, o)
	}

	day := func(src sim.CandidateSource, d sim.Dispatcher) (sim.Result, uint64) {
		e, err := sim.New(model.DefaultMarket(), fleet, 11)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCandidateSource(src)
		return e.RunScenario(orders, nil, d), e.RNGDraws()
	}
	for _, d := range []sim.Dispatcher{Nearest{}, MaxMargin{}} {
		var arrivalTies, marginTies int
		want, wantDraws := day(&sim.ScanSource{}, tieSpy{d, &arrivalTies, &marginTies})
		if want.Served == 0 || arrivalTies == 0 || marginTies == 0 {
			t.Fatalf("%s: %d served, %d lists with an arrival tie at the minimum, %d with a margin tie at the maximum; the day tests nothing",
				d.Name(), want.Served, arrivalTies, marginTies)
		}
		if _, isNearest := d.(Nearest); isNearest && wantDraws == 0 {
			t.Fatalf("%s: no RNG draw all day", d.Name())
		}
		got, gotDraws := day(sim.NewGridSource(nil), d)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: bounded index served %d for %.9f, the scan %d for %.9f; assignments %v vs %v",
				d.Name(), got.Served, got.Revenue, want.Served, want.Revenue, got.Assignment, want.Assignment)
		}
		if gotDraws != wantDraws {
			t.Errorf("%s: %d RNG draws on the bounded index, %d on the scan", d.Name(), gotDraws, wantDraws)
		}
	}
}
