package experiments

import (
	"context"
	"testing"
)

func TestWelfareComparison(t *testing.T) {
	cfg := testConfig()
	rows, err := WelfareComparison(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Sweep) {
		t.Fatalf("rows = %d, want %d", len(rows), len(cfg.Sweep))
	}
	for _, r := range rows {
		// Identities: welfare ≥ profit for the same assignment
		// (consumer surplus is non-negative)...
		if r.ProfitObjWelfare < r.ProfitObjProfit-1e-9 {
			t.Errorf("drivers=%d: welfare %.3f below profit %.3f", r.Drivers, r.ProfitObjWelfare, r.ProfitObjProfit)
		}
		if r.WelfareObjWelfare < r.WelfareObjProfit-1e-9 {
			t.Errorf("drivers=%d: welfare-obj welfare below its profit", r.Drivers)
		}
		// ...and all quantities are non-negative at this scale.
		if r.ProfitObjProfit < 0 || r.WelfareObjProfit < -1e-9 {
			t.Errorf("drivers=%d: negative profit", r.Drivers)
		}
	}
	fig := WelfareFigure(rows)
	if fig.ID != "ext-welfare" || len(fig.Series) != 2 {
		t.Fatalf("bad figure %+v", fig.ID)
	}
}

func TestSurgeSweepShapes(t *testing.T) {
	cfg := testConfig()
	caps := []float64{1, 1.5, 2, 3}
	rows, err := SurgeSweep(context.Background(), cfg, 15, caps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(caps) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Higher caps can only raise prices, hence revenue per served task;
	// total revenue at the top cap should be at least flat pricing's.
	if rows[len(rows)-1].Revenue < rows[0].Revenue {
		t.Errorf("revenue fell with surge: %.2f → %.2f", rows[0].Revenue, rows[len(rows)-1].Revenue)
	}
	for _, r := range rows {
		if r.ServeRate < 0 || r.ServeRate > 1 {
			t.Errorf("cap %.1f: serve rate %.3f outside [0,1]", r.MaxAlpha, r.ServeRate)
		}
		if r.Gini < 0 || r.Gini > 1 {
			t.Errorf("cap %.1f: Gini %.3f outside [0,1]", r.MaxAlpha, r.Gini)
		}
	}
	fig := SurgeFigure(rows)
	if fig.ID != "ext-surge" || len(fig.Series) != 4 {
		t.Fatalf("bad figure")
	}
}

func TestDispatchComparison(t *testing.T) {
	cfg := testConfig()
	rows, err := DispatchComparison(context.Background(), cfg, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	byName := map[string]DispatchRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Ratio < 0 || r.Ratio > 1+1e-9 {
			t.Errorf("%s: ratio %.4f outside [0,1]", r.Name, r.Ratio)
		}
		if r.ServeRate < 0 || r.ServeRate > 1 {
			t.Errorf("%s: serve rate %.4f", r.Name, r.ServeRate)
		}
	}
	// Offline greedy is the full-information reference: best ratio.
	greedy := byName["offline Greedy (Alg. 1)"]
	for _, r := range rows {
		if r.Profit > greedy.Profit+1e-6 {
			t.Errorf("%s profit %.3f exceeds offline greedy %.3f", r.Name, r.Profit, greedy.Profit)
		}
	}
	// Rolling replan dominates the instant heuristics (it re-runs the
	// offline algorithm with the same information plus hindsight).
	if byName["rolling replan"].Profit < byName["Nearest (Alg. 3)"].Profit*0.95 {
		t.Errorf("replan %.3f well below Nearest %.3f",
			byName["rolling replan"].Profit, byName["Nearest (Alg. 3)"].Profit)
	}
}

func TestChurnSweepShapes(t *testing.T) {
	cfg := testConfig()
	cfg.Replications = 2
	rates := []float64{0, 0.25, 0.6}
	rows, err := ChurnSweep(context.Background(), cfg, 15, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rates) {
		t.Fatalf("rows = %d, want %d", len(rows), len(rates))
	}
	if rows[0].Cancelled != 0 {
		t.Fatalf("rate 0 cancelled %.1f tasks", rows[0].Cancelled)
	}
	last := rows[len(rows)-1]
	if last.Cancelled == 0 {
		t.Fatal("heavy churn honored no cancellations")
	}
	// Retiring drivers and cancelling riders can only shrink served work.
	if last.ServeRate >= rows[0].ServeRate {
		t.Errorf("serve rate did not fall under churn: %.3f → %.3f", rows[0].ServeRate, last.ServeRate)
	}
	for _, r := range rows {
		if r.ServeRate < 0 || r.ServeRate > 1 {
			t.Errorf("rate %.2f: serve rate %.3f outside [0,1]", r.Rate, r.ServeRate)
		}
	}

	fig := ChurnFigure(rows)
	if fig.ID != "ext-churn" || len(fig.Series) != 3 {
		t.Fatal("bad churn figure")
	}
}
