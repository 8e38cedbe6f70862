package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

// The central soundness property of the oracle rail: because every
// online policy's own assignment is force-kept into the hindsight
// instance, the rail optimum dominates each policy's revenue on any
// trace — churn, cancellations, batching and all — so every reported
// competitive ratio lands in (0, 1].
func TestRegretOfflineDominatesOnline(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := Config{Seed: seed, Tasks: 60, Sweep: []int{6, 14}, Workers: 2}
		// The small NodeCap keeps the suite fast under -race and
		// exercises the abort path; dominance holds regardless of
		// exactness because the incumbent already contains every
		// policy's force-kept assignment.
		rc := RegretConfig{Churn: 0.3, Cancel: 0.25, Window: 40, TopK: 6, LP: true, NodeCap: 50_000}
		points, err := RegretSweep(context.Background(), cfg, rc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(points) != len(cfg.Sweep) {
			t.Fatalf("seed %d: %d points, want %d", seed, len(points), len(cfg.Sweep))
		}
		for _, pt := range points {
			if len(pt.Rows) != len(RegretPolicies) {
				t.Fatalf("seed %d @%d drivers: %d rows", seed, pt.Drivers, len(pt.Rows))
			}
			for _, row := range pt.Rows {
				if row.OfflineRevenue < row.OnlineRevenue {
					t.Errorf("seed %d @%d drivers: %s online %.6f beats offline %.6f",
						seed, pt.Drivers, row.Policy, row.OnlineRevenue, row.OfflineRevenue)
				}
				if row.CompetitiveRatio <= 0 || row.CompetitiveRatio > 1 {
					t.Errorf("seed %d @%d drivers: %s ratio %.6f outside (0,1]",
						seed, pt.Drivers, row.Policy, row.CompetitiveRatio)
				}
				if row.RevenueRegret < 0 {
					t.Errorf("seed %d @%d drivers: %s negative regret %.6f",
						seed, pt.Drivers, row.Policy, row.RevenueRegret)
				}
			}
			if pt.Oracle.UpperBound < pt.Rows[0].OfflineRevenue {
				t.Errorf("seed %d @%d drivers: upper bound %.6f below objective %.6f",
					seed, pt.Drivers, pt.Oracle.UpperBound, pt.Rows[0].OfflineRevenue)
			}
		}
	}
}

// The sweep must be reproducible: same config, same result, including
// the solver statistics the regret figure reports.
func TestRegretSweepDeterministic(t *testing.T) {
	cfg := Config{Seed: 9, Tasks: 50, Sweep: []int{10}, Workers: 3}
	rc := RegretConfig{Churn: 0.2, Cancel: 0.1, TopK: 5, LP: true, NodeCap: 50_000}
	a, err := RegretSweep(context.Background(), cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RegretSweep(context.Background(), cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i].Rows {
			ra, rb := a[i].Rows[j], b[i].Rows[j]
			if ra.OnlineRevenue != rb.OnlineRevenue || ra.OfflineRevenue != rb.OfflineRevenue ||
				ra.CompetitiveRatio != rb.CompetitiveRatio || ra.OnlineServed != rb.OnlineServed {
				t.Errorf("point %d row %d differs between runs: %+v vs %+v", i, j, ra, rb)
			}
		}
		if a[i].Oracle.Nodes != b[i].Oracle.Nodes || a[i].Oracle.Exact != b[i].Oracle.Exact {
			t.Errorf("point %d oracle stats differ: %+v vs %+v", i, a[i].Oracle, b[i].Oracle)
		}
	}
}

func TestRegretFigureShape(t *testing.T) {
	cfg := Config{Seed: 3, Tasks: 40, Sweep: []int{8, 12}, Workers: 2}
	rc := RegretConfig{TopK: 4, NodeCap: 50_000}
	points, err := RegretSweep(context.Background(), cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	fig := RegretFigure(points, cfg, rc)
	if fig.ID != "regret" || len(fig.Series) != 2*len(RegretPolicies) {
		t.Fatalf("bad figure: id=%q series=%d", fig.ID, len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != len(points) || len(s.Y) != len(points) {
			t.Errorf("series %s: %d/%d samples, want %d", s.Name, len(s.X), len(s.Y), len(points))
		}
	}
}

// TestRegretFigureBracket pins the bracket on hand-built points: on an
// inexact one each policy's two columns are online ÷ upper bound and
// online ÷ incumbent, and the label and notes call the second an upper
// bound and count the inexact components; on an exact one, where the
// upper bound is the incumbent, the two columns are equal and nothing is
// called a bound.
func TestRegretFigureBracket(t *testing.T) {
	point := func(exact bool, upper float64) RegretPoint {
		pt := RegretPoint{
			Drivers: 12,
			Rows: []RegretRow{
				{Policy: RegretPolicies[0], OnlineRevenue: 30, OfflineRevenue: 40},
				{Policy: RegretPolicies[1], OnlineRevenue: 36, OfflineRevenue: 40},
			},
			Oracle: RegretOracle{Exact: exact, Components: 7, ExactComponents: 5, UpperBound: upper},
		}
		if exact {
			pt.Oracle.ExactComponents = 7
		}
		pt.bracket()
		return pt
	}
	cfg, rc := Config{Tasks: 40}, RegretConfig{TopK: 4}

	fig := RegretFigure([]RegretPoint{point(false, 50)}, cfg, rc)
	want := []float64{30.0 / 50, 30.0 / 40, 36.0 / 50, 36.0 / 40}
	for i, s := range fig.Series {
		if len(s.Y) != 1 || s.Y[0] != want[i] || s.X[0] != 12 {
			t.Errorf("inexact: series %q = %v at %v, want %v at 12", s.Name, s.Y, s.X, want[i])
		}
	}
	for _, text := range []string{fig.YLabel, fig.Notes} {
		if !strings.Contains(text, "upper bound") {
			t.Errorf("inexact: %q does not call the ratio an upper bound", text)
		}
	}
	if !strings.Contains(fig.Notes, "2/7 at 12 drivers") {
		t.Errorf("inexact: notes %q do not name the 2 inexact components of 7", fig.Notes)
	}

	fig = RegretFigure([]RegretPoint{point(true, 40)}, cfg, rc)
	for i := 0; i < len(fig.Series); i += 2 {
		lo, hi := fig.Series[i], fig.Series[i+1]
		if lo.Y[0] != hi.Y[0] {
			t.Errorf("exact: %q = %v, %q = %v, want equal", lo.Name, lo.Y[0], hi.Name, hi.Y[0])
		}
	}
	if strings.Contains(fig.YLabel+fig.Notes, "bound") {
		t.Errorf("exact: label %q / notes %q call an exact ratio a bound", fig.YLabel, fig.Notes)
	}
}

// TestRegretOnlineRevenuePinned pins the paper's number where the
// figure prints it: both policies' online revenue, to the bit, and
// their served counts at the three densities `rideshare experiments
// -fig regret -scale bench` sweeps, under RegretBench, the configuration
// that command runs. A change to how the engine decides an instant
// order or a window that moves the books by one ulp fails here, not
// only in the printed ratios. The hindsight side is pinned the same
// way: the offline revenue, the oracle's upper bound to the bit and
// how many component root LPs it solved and path columns those LPs
// fixed out, so a change to the LP under the oracle shows here too.
func TestRegretOnlineRevenuePinned(t *testing.T) {
	cfg, rc := RegretBench(Default())
	points, err := RegretSweep(context.Background(), cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][2]struct {
		bits   uint64
		served int
	}{
		10:  {{0x40534d362215b812, 53}, {0x404be89d275c0a9c, 38}},
		60:  {{0x406dc547236bc769, 159}, {0x406909794825a3cb, 133}},
		120: {{0x4070e735989adda6, 176}, {0x406cdc0fe9679a35, 148}},
	}
	oracle := map[int]struct {
		offline, upper    uint64
		lpSolved, lpFixed int
	}{
		10:  {0x40675586b36d0156, 0x406857f1e09c1baa, 0, 0},
		60:  {0x4075c8b804ffdd78, 0x4076855aa59725e9, 2, 2},
		120: {0x40768a3d4414e7fc, 0x407935d3061dd218, 2, 55},
	}
	if len(points) != len(want) {
		t.Fatalf("%d points, want %d", len(points), len(want))
	}
	for _, pt := range points {
		o := oracle[pt.Drivers]
		for i, row := range pt.Rows {
			w := want[pt.Drivers][i]
			if got := math.Float64bits(row.OnlineRevenue); got != w.bits || row.OnlineServed != w.served {
				t.Errorf("%d drivers, %s: online revenue %v (%#x) over %d served, want %v (%#x) over %d",
					pt.Drivers, row.Policy, row.OnlineRevenue, got, row.OnlineServed, math.Float64frombits(w.bits), w.bits, w.served)
			}
			if got := math.Float64bits(row.OfflineRevenue); got != o.offline {
				t.Errorf("%d drivers, %s: offline revenue %v (%#x), want %v (%#x)",
					pt.Drivers, row.Policy, row.OfflineRevenue, got, math.Float64frombits(o.offline), o.offline)
			}
		}
		if got := math.Float64bits(pt.Oracle.UpperBound); got != o.upper {
			t.Errorf("%d drivers: oracle upper bound %v (%#x), want %v (%#x)",
				pt.Drivers, pt.Oracle.UpperBound, got, math.Float64frombits(o.upper), o.upper)
		}
		if pt.Oracle.LPSolved != o.lpSolved || pt.Oracle.LPFixed != o.lpFixed {
			t.Errorf("%d drivers: %d root LPs solved fixing %d columns, want %d fixing %d",
				pt.Drivers, pt.Oracle.LPSolved, pt.Oracle.LPFixed, o.lpSolved, o.lpFixed)
		}
	}
}
