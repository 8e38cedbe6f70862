package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// localMaxMargin mirrors online.MaxMargin without importing the online
// package (which would create an import cycle in tests).
type localMaxMargin struct{}

func (localMaxMargin) Name() string   { return "maxMargin" }
func (localMaxMargin) RankedBy() Rank { return 0 }
func (localMaxMargin) Choose(_ model.Task, cands []Candidate, _ *rand.Rand) int {
	best := -1
	for i, c := range cands {
		if best < 0 || c.Margin > cands[best].Margin {
			best = i
		}
	}
	if best >= 0 && cands[best].Margin <= 0 {
		return -1
	}
	return best
}

func TestReplanSingleTask(t *testing.T) {
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(120)}}
	tk := task(0, 1, 3, minutes(1), minutes(15), minutes(25), 10)
	e := mustEngine(t, d)
	res := e.RunReplanScenario([]model.Task{tk}, nil, 120)
	if res.Served != 1 {
		t.Fatalf("served = %d, want 1", res.Served)
	}
	if math.Abs(res.TotalProfit-4) > 1e-6 {
		t.Fatalf("profit = %.6f, want 4 (same accounting as instant dispatch)", res.TotalProfit)
	}
}

func TestReplanChainsTasks(t *testing.T) {
	// Three sequential tasks: rolling-horizon should chain them all on
	// the single driver across rounds.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tasks := []model.Task{
		task(0, 0, 1, minutes(1), minutes(20), minutes(25), 8),
		task(1, 1, 2, minutes(2), minutes(50), minutes(55), 9),
		task(2, 2, 3, minutes(3), minutes(80), minutes(85), 10),
	}
	e := mustEngine(t, d)
	res := e.RunReplanScenario(tasks, nil, 300)
	if res.Served != 3 {
		t.Fatalf("served = %d, want all 3 chained", res.Served)
	}
	if len(res.DriverPaths[0]) != 3 {
		t.Fatalf("driver path %v", res.DriverPaths[0])
	}
}

func TestReplanExpiredTasksRejected(t *testing.T) {
	// A task whose pickup deadline passes before any replan round can
	// serve it must be counted rejected exactly once.
	d := []model.Driver{{ID: 0, Source: at(30), Dest: at(30), Start: 0, End: minutes(240)}}
	unreachable := task(0, 0, 1, minutes(1), minutes(5), minutes(10), 10)
	e := mustEngine(t, d)
	res := e.RunReplanScenario([]model.Task{unreachable}, nil, 60)
	if res.Served != 0 || res.Rejected != 1 {
		t.Fatalf("served=%d rejected=%d, want 0,1", res.Served, res.Rejected)
	}
}

func TestReplanAccountingConsistent(t *testing.T) {
	cfg := trace.NewConfig(41, 120, 20, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunReplanScenario(tr.Tasks, nil, 120)
	if res.Served+res.Rejected != len(tr.Tasks) {
		t.Fatalf("served %d + rejected %d != %d", res.Served, res.Rejected, len(tr.Tasks))
	}
	var sum float64
	for _, p := range res.PerDriverProfit {
		sum += p
	}
	if math.Abs(sum-res.TotalProfit) > 1e-9 {
		t.Fatalf("profit sum %.6f != total %.6f", sum, res.TotalProfit)
	}
	for ti, drv := range res.Assignment {
		found := false
		for _, x := range res.DriverPaths[drv] {
			if x == ti {
				found = true
			}
		}
		if !found {
			t.Fatalf("assignment (%d→%d) missing from driver path", ti, drv)
		}
	}
}

func TestReplanBeatsInstantHeuristics(t *testing.T) {
	// Rolling-horizon re-optimization sees pending demand and uses the
	// offline greedy; aggregated over seeds it should dominate the
	// instant heuristics.
	var replan, mm float64
	for seed := int64(0); seed < 4; seed++ {
		cfg := trace.NewConfig(seed, 150, 20, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		eng, err := New(cfg.Market, tr.Drivers, seed)
		if err != nil {
			t.Fatal(err)
		}
		replan += eng.RunReplanScenario(tr.Tasks, nil, 60).TotalProfit
		mm += eng.RunScenario(tr.Tasks, nil, localMaxMargin{}).TotalProfit
	}
	if replan < mm {
		t.Fatalf("replan aggregate %.2f below maxMargin %.2f", replan, mm)
	}
}

func TestReplanPanicsOnBadPeriod(t *testing.T) {
	e := mustEngine(t, []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: 100}})
	// NaN used to run with no flush grid and +Inf to extend the grid for
	// ever (on an empty day both returned quietly).
	for _, period := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("period %g: expected panic", period)
				}
			}()
			e.RunReplanScenario(nil, nil, period)
		}()
	}
}

func TestReplanEmptyTasks(t *testing.T) {
	e := mustEngine(t, []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: 100}})
	res := e.RunReplanScenario(nil, nil, 60)
	if res.Served != 0 || res.Rejected != 0 {
		t.Fatalf("empty day: %+v", res)
	}
}
