package offline_test

import (
	"math"
	"testing"

	"repro/internal/bound"
	"repro/internal/model"
	"repro/internal/offline"
)

// tightness compiles the Fig. 2 instance of diameter d.
func tightness(t *testing.T, d int, eps float64) *offline.Instance {
	t.Helper()
	mkt, drivers, tasks, err := offline.TightnessInstance(d, eps)
	if err != nil {
		t.Fatalf("D=%d: %v", d, err)
	}
	in, err := offline.Compile(mkt, model.Trace{Drivers: drivers, Tasks: tasks}, offline.Options{})
	if err != nil {
		t.Fatalf("D=%d: %v", d, err)
	}
	return in
}

// optimum returns the exact optimum of the compiled instance: it is one
// component, which the sparse solver enumerates whole.
func optimum(t *testing.T, in *offline.Instance) float64 {
	t.Helper()
	var s bound.SparseSolver
	sol, err := s.Solve(in, bound.SparseOptions{})
	if err != nil || !sol.Exact {
		t.Fatalf("exact solve: %v (exact %v)", err, sol.Exact)
	}
	return sol.Objective
}

func TestTightnessInstanceGreedyEarnsOne(t *testing.T) {
	for _, d := range []int{2, 3, 5, 8} {
		g := tightness(t, d, 0.01)
		sol := offline.Greedy(g)
		if math.Abs(sol.TotalProfit-1) > 1e-6 {
			t.Errorf("D=%d: greedy profit %.6f, want 1 (Lemma 3)", d, sol.TotalProfit)
		}
		if len(sol.Paths) != 1 || sol.Paths[0].Driver != 0 {
			t.Errorf("D=%d: greedy should select only driver 0's chain, got %+v", d, sol.Paths)
		}
		if got := len(sol.Paths[0].Tasks); got != d {
			t.Errorf("D=%d: chain length %d, want %d", d, got, d)
		}
	}
}

func TestTightnessInstanceOptimum(t *testing.T) {
	const eps = 0.01
	for _, d := range []int{2, 3, 4} {
		g := tightness(t, d, eps)
		want := float64(d+1) * (1 - eps)
		if opt := optimum(t, g); math.Abs(opt-want) > 1e-6 {
			t.Errorf("D=%d: OPT = %.6f, want (D+1)(1−ε) = %.6f", d, opt, want)
		}
	}
}

func TestTightnessRatioApproachesBound(t *testing.T) {
	// GA/OPT = 1/((D+1)(1−ε)): the paper's tight worst case.
	const eps = 0.001
	for _, d := range []int{2, 3, 5} {
		g := tightness(t, d, eps)
		ga := offline.Greedy(g).TotalProfit
		ratio := ga / optimum(t, g)
		want := 1 / (float64(d+1) * (1 - eps))
		if math.Abs(ratio-want) > 1e-6 {
			t.Errorf("D=%d: ratio %.6f, want %.6f", d, ratio, want)
		}
	}
}

func TestTightnessInstanceDiameter(t *testing.T) {
	// The instance's task-map diameter is exactly D (the chain).
	for _, d := range []int{2, 4, 6} {
		g := tightness(t, d, 0.01)
		if got := g.Diameter(); got != d {
			t.Errorf("D=%d: diameter %d", d, got)
		}
	}
}

func TestTightnessInstanceValidation(t *testing.T) {
	if _, _, _, err := offline.TightnessInstance(1, 0.01); err == nil {
		t.Error("D=1 should be rejected")
	}
	if _, _, _, err := offline.TightnessInstance(5, 0); err == nil {
		t.Error("ε=0 should be rejected")
	}
	if _, _, _, err := offline.TightnessInstance(5, 0.9); err == nil {
		t.Error("ε ≥ 1−1/D should be rejected")
	}
}
