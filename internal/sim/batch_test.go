package sim

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

func TestBatchedSingleTask(t *testing.T) {
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(120)}}
	tk := task(0, 1, 3, minutes(1), minutes(15), minutes(25), 10)
	e := mustEngine(t, d)
	res := e.RunBatchedScenario([]model.Task{tk}, nil, 30)
	if res.Served != 1 {
		t.Fatalf("served = %d, want 1", res.Served)
	}
	// Same accounting as instant dispatch: profit 10 − (1+2+3) = 4.
	if math.Abs(res.TotalProfit-4) > 1e-6 {
		t.Fatalf("profit = %.6f, want 4", res.TotalProfit)
	}
}

func TestBatchedGloballyBetterThanGreedyChoice(t *testing.T) {
	// Two tasks published within one window, two drivers. Instant
	// maxMargin gives the first task to the close driver (its best
	// margin), forcing the second task to the far driver — total
	// deadhead 0 + 10. Batched matching swaps them when that raises the
	// batch's total margin.
	drivers := []model.Driver{
		{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)},
		{ID: 1, Source: at(2), Dest: at(2), Start: 0, End: minutes(240)},
	}
	// Task A at km 0 (close to driver 0), task B at km 1: driver 0 is
	// best for both; batched must assign A→0 and B→1 (or the optimum).
	a := task(0, 0, 2, minutes(1), minutes(20), minutes(30), 10)
	b := task(1, 1, 3, minutes(1.5), minutes(20), minutes(30), 10)
	e := mustEngine(t, drivers)
	res := e.RunBatchedScenario([]model.Task{a, b}, nil, 120)
	if res.Served != 2 {
		t.Fatalf("served = %d, want 2 (one task per driver per batch)", res.Served)
	}
	if res.Assignment[0] == res.Assignment[1] {
		t.Fatalf("both tasks went to driver %d within one batch", res.Assignment[0])
	}
}

func TestBatchedOneTaskPerDriverPerBatch(t *testing.T) {
	// Three compatible tasks in one window, one driver: only one can be
	// assigned in the batch.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tasks := []model.Task{
		task(0, 0, 1, minutes(1), minutes(20), minutes(25), 8),
		task(1, 0, 1, minutes(1.2), minutes(40), minutes(45), 9),
		task(2, 0, 1, minutes(1.4), minutes(60), minutes(65), 10),
	}
	e := mustEngine(t, d)
	res := e.RunBatchedScenario(tasks, nil, 120)
	if res.Served != 1 {
		t.Fatalf("served = %d, want 1 within a single batch", res.Served)
	}
	// The matcher should pick the highest-margin task (task 2: price 10,
	// same geometry).
	if _, ok := res.Assignment[2]; !ok {
		t.Fatalf("assignment %v, want the highest-margin task", res.Assignment)
	}
}

func TestBatchedWindowSplitsBatches(t *testing.T) {
	// Same three tasks but a tiny window: each task gets its own batch,
	// so the single driver can chain all three (deadline locking
	// permitting).
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	tasks := []model.Task{
		task(0, 0, 1, minutes(1), minutes(20), minutes(25), 8),
		task(1, 1, 2, minutes(5), minutes(40), minutes(45), 9),
		task(2, 2, 3, minutes(9), minutes(60), minutes(65), 10),
	}
	e := mustEngine(t, d)
	res := e.RunBatchedScenario(tasks, nil, 10)
	if res.Served != 3 {
		t.Fatalf("served = %d, want 3 across separate batches", res.Served)
	}
}

func TestBatchedDelayCanLoseUrgentTasks(t *testing.T) {
	// A task whose pickup deadline falls inside the batch window is
	// decided too late: the response-time cost of batching.
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	urgent := task(0, 0, 1, minutes(1), minutes(2), minutes(10), 10)
	e := mustEngine(t, d)
	if res := e.RunBatchedScenario([]model.Task{urgent}, nil, 600); res.Served != 0 {
		t.Fatal("urgent task should be lost to batching delay")
	}
	if res := e.RunScenario([]model.Task{urgent}, nil, pickFirst{}); res.Served != 1 {
		t.Fatal("instant dispatch should serve the urgent task")
	}
}

func TestBatchedProfitNonNegativePerDriver(t *testing.T) {
	cfg := trace.NewConfig(33, 150, 25, trace.HomeWorkHome)
	tr := trace.NewGenerator(cfg).Generate(nil)
	eng, err := New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunBatchedScenario(tr.Tasks, nil, 60)
	for i, p := range res.PerDriverProfit {
		if p < -1e-6 {
			t.Fatalf("driver %d profit %.6f < 0 (matching assigned a non-positive margin?)", i, p)
		}
	}
}

func TestBatchedPanicsOnBadWindow(t *testing.T) {
	e := mustEngine(t, []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: 100}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.RunBatchedScenario(nil, nil, 0)
}

func TestBatchAlgorithmString(t *testing.T) {
	if BatchHungarian.String() != "batched(hungarian)" {
		t.Error("BatchHungarian String wrong")
	}
	if BatchAlgorithm(9).String() != "BatchAlgorithm(9)" {
		t.Error("unknown BatchAlgorithm String wrong")
	}
}
