package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/trace"
)

// lineMkt: 60 km/h, 1 unit/km on a flat line (see lineMkt in internal/bound's dense_rules_test.go).
func lineMkt() model.Market {
	return model.Market{Dist: geo.Equirectangular, SpeedKmh: 60, GasPerKm: 1}
}

func at(km float64) geo.Point {
	return geo.Offset(geo.Point{Lat: 41.15, Lon: -8.61}, math.Pi/2, km)
}

func minutes(m float64) float64 { return m * 60 }

// pickFirst deterministically takes the first candidate.
type pickFirst struct{}

func (pickFirst) Name() string   { return "first" }
func (pickFirst) RankedBy() Rank { return 0 }
func (pickFirst) Choose(_ model.Task, cands []Candidate, _ *rand.Rand) int {
	if len(cands) == 0 {
		return -1
	}
	return 0
}

// rejectAll declines everything.
type rejectAll struct{}

func (rejectAll) Name() string                                         { return "reject" }
func (rejectAll) RankedBy() Rank                                       { return 0 }
func (rejectAll) Choose(_ model.Task, _ []Candidate, _ *rand.Rand) int { return -1 }

func mustEngine(t *testing.T, drivers []model.Driver) *Engine {
	t.Helper()
	e, err := New(lineMkt(), drivers, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func task(id int, srcKm, dstKm, publish, startBy, endBy, price float64) model.Task {
	return model.Task{
		ID: id, Publish: publish,
		Source: at(srcKm), Dest: at(dstKm),
		StartBy: startBy, EndBy: endBy,
		Price: price, WTP: price,
	}
}

func TestSingleTaskServed(t *testing.T) {
	// Driver at km 0; task from km 1 to km 3 (2 km ride).
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(120)}}
	tk := task(0, 1, 3, minutes(1), minutes(10), minutes(20), 10)
	e := mustEngine(t, d)
	res := e.RunScenario([]model.Task{tk}, nil, pickFirst{})
	if res.Served != 1 || res.Rejected != 0 {
		t.Fatalf("served=%d rejected=%d, want 1, 0", res.Served, res.Rejected)
	}
	// Profit: price 10 − excess cost. Legs: 0→1 (1) + 1→3 (2) + 3→0 (3)
	// = 6; baseline 0→0 = 0. Profit = 10 − 6 = 4.
	if math.Abs(res.TotalProfit-4) > 1e-6 {
		t.Fatalf("profit = %.6f, want 4", res.TotalProfit)
	}
	if math.Abs(res.Revenue-10) > 1e-9 {
		t.Fatalf("revenue = %.6f, want 10", res.Revenue)
	}
}

func TestUnreachablePickupRejected(t *testing.T) {
	// Pickup 30 km away with a 10-minute deadline: unreachable.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tk := task(0, 30, 31, minutes(1), minutes(10), minutes(30), 10)
	e := mustEngine(t, d)
	res := e.RunScenario([]model.Task{tk}, nil, pickFirst{})
	if res.Served != 0 || res.Rejected != 1 {
		t.Fatalf("served=%d rejected=%d, want 0, 1", res.Served, res.Rejected)
	}
}

func TestReturnHomeEnforced(t *testing.T) {
	// Shift ends at minute 30. Task dropping at km 20 at ~min 21 leaves
	// no time for the 20-minute return → reject.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(30)}}
	tk := task(0, 1, 20, minutes(1), minutes(2), minutes(25), 50)
	e := mustEngine(t, d)
	res := e.RunScenario([]model.Task{tk}, nil, pickFirst{})
	if res.Served != 0 {
		t.Fatalf("task served despite violating the driver's end-of-shift return")
	}
}

func TestShiftNotStartedYet(t *testing.T) {
	// Driver starts at minute 60; a task published at minute 5 with
	// pickup deadline minute 70 is still reachable (depart at 60).
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: minutes(60), End: minutes(240)}}
	ok := task(0, 5, 6, minutes(5), minutes(70), minutes(90), 10)
	e := mustEngine(t, d)
	if res := e.RunScenario([]model.Task{ok}, nil, pickFirst{}); res.Served != 1 {
		t.Fatal("task after shift start should be served")
	}
	// Same task but pickup deadline minute 30 < shift start + travel.
	tooEarly := task(0, 5, 6, minutes(5), minutes(30), minutes(90), 10)
	if res := e.RunScenario([]model.Task{tooEarly}, nil, pickFirst{}); res.Served != 0 {
		t.Fatal("task before shift start should be rejected")
	}
}

func TestLockedDriverQueuesNextTask(t *testing.T) {
	// Task A occupies the driver until ~minute 11; task B published at
	// minute 5 (while locked) with pickup deadline far enough out must
	// still be assignable using the driver's post-A position and time.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	a := task(0, 0, 10, minutes(0), minutes(1), minutes(15), 20)
	b := task(1, 10, 12, minutes(5), minutes(30), minutes(45), 10)
	e := mustEngine(t, d)
	res := e.RunScenario([]model.Task{a, b}, nil, pickFirst{})
	if res.Served != 2 {
		t.Fatalf("served=%d, want 2 (locked driver must be a candidate via post-finish state)", res.Served)
	}
	if len(res.DriverPaths[0]) != 2 {
		t.Fatalf("driver path = %v, want both tasks", res.DriverPaths[0])
	}
}

func TestRealTimeModeBeatsDeadlineMode(t *testing.T) {
	// Task A finishes (really) at minute ~11 though its deadline is 60.
	// Task B's pickup deadline (minute 30) is only reachable using the
	// real finish time (§III-B note). Deadline mode — the paper's
	// Algorithm 3/4 candidate rule — must hold the driver until 60 and
	// reject B; real-time mode serves both.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	a := task(0, 0, 10, minutes(0), minutes(1), minutes(60), 20)
	b := task(1, 10, 11, minutes(5), minutes(30), minutes(70), 10)

	e := mustEngine(t, d)
	if res := e.RunScenario([]model.Task{a, b}, nil, pickFirst{}); res.Served != 1 {
		t.Fatalf("deadline mode served %d, want 1 (driver locked until t̄+)", res.Served)
	}
	e.RealTime = true
	if res := e.RunScenario([]model.Task{a, b}, nil, pickFirst{}); res.Served != 2 {
		t.Fatalf("real-time mode served %d, want 2 via early finish", res.Served)
	}
}

func TestDropoffDeadlineEnforced(t *testing.T) {
	// Pickup reachable, but arrival+service exceeds EndBy → reject.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	// Publish 0, pickup by minute 10 at km 5 (arrive min 5), ride 10 km
	// = 10 min, but EndBy at minute 12 < 15.
	tk := task(0, 5, 15, 0, minutes(10), minutes(12), 10)
	e := mustEngine(t, d)
	if res := e.RunScenario([]model.Task{tk}, nil, pickFirst{}); res.Served != 0 {
		t.Fatal("task violating dropoff deadline should be rejected")
	}
}

func TestRejectAllDispatcher(t *testing.T) {
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tasks := []model.Task{
		task(0, 1, 2, minutes(1), minutes(10), minutes(20), 5),
		task(1, 1, 2, minutes(2), minutes(12), minutes(22), 5),
	}
	e := mustEngine(t, d)
	res := e.RunScenario(tasks, nil, rejectAll{})
	if res.Served != 0 || res.Rejected != 2 {
		t.Fatalf("served=%d rejected=%d, want 0, 2", res.Served, res.Rejected)
	}
	if res.TotalProfit != 0 || res.Revenue != 0 {
		t.Fatalf("profit=%.3f revenue=%.3f, want 0, 0", res.TotalProfit, res.Revenue)
	}
}

func TestMarginFormula(t *testing.T) {
	// Check δ_{n,m} (Eq. 14) against hand arithmetic. Driver idle at km
	// 0, home at km 0. Task: km 2 → km 5, price 10.
	// δ = 10 − (deadhead 2 + service 3 + newHome 5 − oldHome 0) = 0.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tk := task(0, 2, 5, minutes(1), minutes(30), minutes(60), 10)
	e := mustEngine(t, d)
	var got float64
	probe := dispatcherFunc(func(_ model.Task, cands []Candidate, _ *rand.Rand) int {
		if len(cands) != 1 {
			t.Fatalf("candidates = %d, want 1", len(cands))
		}
		got = cands[0].Margin
		return -1
	})
	e.RunScenario([]model.Task{tk}, nil, probe)
	if math.Abs(got-0) > 1e-6 {
		t.Fatalf("margin = %.6f, want 0", got)
	}
}

// TestMarginPricesLegsAsTheMarketDoes: Engine.margin multiplies its
// three distances by the market's cost per kilometre itself rather than
// through Market.TravelCostKm (see there for why). The books are kept by
// TravelCost, so the two must agree to the bit on whatever they are fed,
// infinities and NaN included.
func TestMarginPricesLegsAsTheMarketDoes(t *testing.T) {
	e := mustEngine(t, []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}})
	e.Market.GasPerKm = 0.137
	rng := rand.New(rand.NewSource(5))
	kms := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, 1e300}
	for i := 0; i < 1000; i++ {
		km := func() float64 {
			if i < 200 {
				return kms[rng.Intn(len(kms))]
			}
			return rng.ExpFloat64() * 8
		}
		price, sc, pickup, home, old := rng.Float64()*40, rng.Float64()*9, km(), km(), km()
		m := e.Market
		want := price - (m.TravelCostKm(pickup) + sc + m.TravelCostKm(home) - m.TravelCostKm(old))
		if got := e.margin(price, sc, pickup, home, old); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("margin(%g, %g, %g, %g, %g) = %g, by TravelCostKm %g", price, sc, pickup, home, old, got, want)
		}
	}
}

// dispatcherFunc adapts a func to Dispatcher for tests.
type dispatcherFunc func(model.Task, []Candidate, *rand.Rand) int

func (dispatcherFunc) Name() string   { return "func" }
func (dispatcherFunc) RankedBy() Rank { return 0 }
func (f dispatcherFunc) Choose(t model.Task, c []Candidate, r *rand.Rand) int {
	return f(t, c, r)
}

func TestArrivalComputation(t *testing.T) {
	// Driver at km 0, task pickup at km 6 published at minute 2:
	// arrival = 2 + 6 = minute 8.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tk := task(0, 6, 7, minutes(2), minutes(30), minutes(60), 10)
	e := mustEngine(t, d)
	var arr float64
	probe := dispatcherFunc(func(_ model.Task, cands []Candidate, _ *rand.Rand) int {
		arr = cands[0].Arrival
		return -1
	})
	e.RunScenario([]model.Task{tk}, nil, probe)
	if math.Abs(arr-minutes(8)) > 1 {
		t.Fatalf("arrival = %.1f s, want ≈ %1.f s", arr, minutes(8))
	}
}

// TestChoiceOutOfRangePanics: a dispatcher that answers with an index
// past the list it was handed is a bug in the dispatcher, and the
// arrival handler names it instead of committing whatever lies there.
func TestChoiceOutOfRangePanics(t *testing.T) {
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tk := task(0, 6, 7, minutes(2), minutes(30), minutes(60), 10)
	past := dispatcherFunc(func(_ model.Task, cands []Candidate, _ *rand.Rand) int { return len(cands) })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "dispatcher func chose 1 of 1 candidates") {
			t.Fatalf("recovered %q, want the out-of-range choice named", msg)
		}
	}()
	mustEngine(t, d).RunScenario([]model.Task{tk}, nil, past)
}

func TestProfitAccountingConservation(t *testing.T) {
	// TotalProfit must equal Σ per-driver profits, and Revenue the sum
	// of served prices.
	d := []model.Driver{
		{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(480)},
		{ID: 1, Source: at(10), Dest: at(10), Start: 0, End: minutes(480)},
	}
	var tasks []model.Task
	for i := 0; i < 12; i++ {
		p := float64(5 + i%3)
		start := minutes(float64(10 + 15*i))
		tasks = append(tasks, task(i, float64(i%8), float64((i+3)%8), start-minutes(5), start, start+minutes(20), p))
	}
	e := mustEngine(t, d)
	res := e.RunScenario(tasks, nil, pickFirst{})

	var profitSum, revSum float64
	for i := range d {
		profitSum += res.PerDriverProfit[i]
		revSum += res.PerDriverRevenue[i]
	}
	if math.Abs(profitSum-res.TotalProfit) > 1e-9 {
		t.Fatalf("per-driver profits sum %.6f != total %.6f", profitSum, res.TotalProfit)
	}
	var priceSum float64
	for ti := range res.Assignment {
		priceSum += tasks[ti].Price
	}
	if math.Abs(priceSum-res.Revenue) > 1e-9 {
		t.Fatalf("assigned prices sum %.6f != revenue %.6f", priceSum, res.Revenue)
	}
	if res.Served+res.Rejected != len(tasks) {
		t.Fatalf("served %d + rejected %d != %d tasks", res.Served, res.Rejected, len(tasks))
	}
}

func TestRunByValueOrdersDescendingPrice(t *testing.T) {
	// With one driver and two overlapping tasks only one can be served;
	// by-value processing must pick the pricier one.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	cheap := task(0, 1, 2, minutes(1), minutes(10), minutes(20), 5)
	rich := task(1, 1, 2, minutes(2), minutes(10), minutes(20), 50)
	e := mustEngine(t, d)

	inOrder := e.RunScenario([]model.Task{cheap, rich}, nil, pickFirst{})
	if _, ok := inOrder.Assignment[0]; !ok {
		t.Fatal("publish order should serve the earlier (cheap) task first")
	}
	byValue := e.RunByValue([]model.Task{cheap, rich}, pickFirst{})
	if _, ok := byValue.Assignment[1]; !ok {
		t.Fatal("by-value order should serve the expensive task first")
	}
}

func TestResultRates(t *testing.T) {
	r := Result{Served: 3, Rejected: 1,
		PerDriverRevenue: []float64{10, 0}, PerDriverTasks: []int{3, 0}}
	if got := r.ServeRate(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("ServeRate = %g, want 0.75", got)
	}
	if got := r.AvgRevenuePerDriver(); math.Abs(got-5) > 1e-12 {
		t.Errorf("AvgRevenuePerDriver = %g, want 5", got)
	}
	if got := r.AvgTasksPerDriver(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("AvgTasksPerDriver = %g, want 1.5", got)
	}
	var empty Result
	if empty.ServeRate() != 0 || empty.AvgRevenuePerDriver() != 0 || empty.AvgTasksPerDriver() != 0 {
		t.Error("zero Result should report zero rates")
	}
}

func TestEngineRejectsInvalidDrivers(t *testing.T) {
	bad := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 10, End: 5}}
	if _, err := New(lineMkt(), bad, 1); err == nil {
		t.Fatal("New should reject start ≥ end")
	}
}

func TestEngineResetBetweenRuns(t *testing.T) {
	// Two identical runs must give identical results (state resets).
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tasks := []model.Task{
		task(0, 1, 3, minutes(1), minutes(10), minutes(20), 10),
		task(1, 3, 5, minutes(2), minutes(40), minutes(60), 10),
	}
	e := mustEngine(t, d)
	r1 := e.RunScenario(tasks, nil, pickFirst{})
	r2 := e.RunScenario(tasks, nil, pickFirst{})
	if r1.Served != r2.Served || math.Abs(r1.TotalProfit-r2.TotalProfit) > 1e-12 {
		t.Fatalf("runs differ: %+v vs %+v", r1.Served, r2.Served)
	}
}

// TestFreshEngine: New builds no run state — every entry point that
// reads it builds its own — so what a caller does between New and the
// first run must not need any. RNGDraws counts from zero, SeekRNG lands
// where that many draws would, SetCandidateSource records a source
// without binding it, and the first run then binds it and starts from
// the RNG as the caller left it, with the books of an engine nobody
// touched.
func TestFreshEngine(t *testing.T) {
	cfg := trace.NewConfig(5, 80, 300, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	fresh := func() *Engine {
		t.Helper()
		e, err := New(cfg.Market, tr.Drivers, 9)
		if err != nil {
			t.Fatal(err)
		}
		if e.states != nil || e.present != nil || e.memo != nil {
			t.Fatal("New built run state")
		}
		return e
	}

	drawn := fresh()
	if n := drawn.RNGDraws(); n != 0 {
		t.Fatalf("a fresh engine has drawn %d times", n)
	}
	for range 7 {
		drawn.rng.Int63()
	}
	sought := fresh()
	sought.SeekRNG(7)
	if drawn.RNGDraws() != 7 || sought.RNGDraws() != 7 {
		t.Fatalf("%d draws drawn and %d sought, want 7 each", drawn.RNGDraws(), sought.RNGDraws())
	}

	src := NewGridSource(nil)
	sought.SetCandidateSource(src)
	if src.e != nil || src.ix != nil {
		t.Fatal("SetCandidateSource bound the source")
	}
	drawn.SetCandidateSource(&ScanSource{})

	want := drawn.RunScenario(tr.Tasks, nil, diffRandom{})
	got := sought.RunScenario(tr.Tasks, nil, diffRandom{})
	diffResults(t, "sought, indexed", want, got)
	if drawn.RNGDraws() != sought.RNGDraws() || drawn.RNGDraws() == 7 {
		t.Fatalf("%d draws on the drawn engine, %d on the sought one: want equal, and a day that draws", drawn.RNGDraws(), sought.RNGDraws())
	}
	auditIndex(t, "after the first run", sought)
}
