package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// layersOf lists, per workload, the layer prefixes that take part in it;
// every metric of any other listed layer must read exactly zero there.
var layersOf = map[string][]string{
	"instant_50k":     {"geo.", "online."},
	"batched_network": {"roadnet."},
	"network_large":   {"roadnet."},
	"durable_churn":   {"geo.", "wal."},
	"http_instant":    {"geo.", "online.", "fed.", "http."},
}

var optionalLayers = []string{"geo.", "online.", "roadnet.", "wal.", "fed.", "http."}

// TestSmokeEveryMetricOnce drives all five workloads through both
// passes at smoke size and holds the output to BENCHMARK.json: every
// declared metric present once per workload with a finite value, no
// undeclared one, well-formed names, and each optional layer silent on
// the workloads that bypass it.
func TestSmokeEveryMetricOnce(t *testing.T) {
	spec := loadTestSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	rep, ok := runAll(spec, workloads(true), options{seed: 3, reps: 3, trace: -1, smoke: true})
	if !ok {
		for w, wr := range rep.Workloads {
			for _, e := range wr.Errors {
				t.Errorf("%s: %s", w, e)
			}
		}
		t.Fatal("smoke run failed its own checks")
	}
	// BENCHMARK.json declares the workloads the driver runs; the program
	// has one more (network_large), held to the same output.
	for _, w := range spec.Workloads {
		if rep.Workloads[w.Name] == nil {
			t.Fatalf("workload %s declared but not run", w.Name)
		}
	}
	for _, w := range workloads(true) {
		w := struct{ Name string }{w.name}
		wr := rep.Workloads[w.Name]
		if wr.Failed != 0 || wr.Attempted == 0 || wr.Reps < 3 {
			t.Errorf("%s: attempted %d, failed %d, reps %d", w.Name, wr.Attempted, wr.Failed, wr.Reps)
		}
		for kind, pair := range map[string]struct {
			specs []metricSpec
			got   map[string]metricOut
		}{"end_to_end": {spec.EndToEnd, wr.EndToEnd}, "per_layer": {spec.PerLayer, wr.PerLayer}} {
			if len(pair.got) != len(pair.specs) {
				t.Errorf("%s %s: %d metrics emitted, %d declared", w.Name, kind, len(pair.got), len(pair.specs))
			}
			for _, s := range pair.specs {
				mo, ok := pair.got[s.Name]
				switch {
				case !name.MatchString(s.Name):
					t.Errorf("metric name %q is malformed", s.Name)
				case !ok:
					t.Errorf("%s: %s not emitted", w.Name, s.Name)
				case math.IsNaN(mo.Value) || math.IsInf(mo.Value, 0) || mo.Unit != s.Unit:
					t.Errorf("%s: %s = %v %q, want a finite value in %q", w.Name, s.Name, mo.Value, mo.Unit, s.Unit)
				case kind == "end_to_end" && (mo.Value <= 0 || len(mo.Reps) < wr.Reps):
					t.Errorf("%s: %s = %v over %d per-rep values, want > 0 over at least %d", w.Name, s.Name, mo.Value, len(mo.Reps), wr.Reps)
				}
			}
		}
		for _, layer := range optionalLayers {
			active := false
			for _, l := range layersOf[w.Name] {
				active = active || l == layer
			}
			busy := 0.0
			for n, mo := range wr.PerLayer {
				if strings.HasPrefix(n, layer) {
					busy += math.Abs(mo.Value)
				}
			}
			if active != (busy > 0) {
				t.Errorf("%s: layer %s active=%v but its metrics sum to %v", w.Name, layer, active, busy)
			}
		}
	}
}

// TestDecoratorsKeepBooks replays churned batched and instant days with
// and without the timing decorators: the books must be bit-identical,
// and the decorated spans must nest and account for all of the root.
func TestDecoratorsKeepBooks(t *testing.T) {
	for _, w := range workloads(true) {
		d, err := generateDay(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := runEngine(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runEngine(d, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if bare.books != traced.books {
			t.Errorf("%s: decorated replay settled %+v, undecorated %+v", w.name, traced.books, bare.books)
		}
		if !bare.books.balanced() || bare.books.Served == 0 {
			t.Errorf("%s: implausible books %+v", w.name, bare.books)
		}

		spans := traced.spans
		self := selfTimes(spans)
		var sum int64
		for i, s := range spans {
			if self[i] < 0 {
				t.Fatalf("%s: span %d (%s) has self time %d ns", w.name, i, s.Name, self[i])
			}
			sum += self[i] + s.Leaf
			if s.Parent >= 0 {
				if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
					t.Fatalf("%s: span %d (%s) leaves its parent %s", w.name, i, s.Name, p.Name)
				}
			} else if s.Name != "day" {
				t.Fatalf("%s: span %d (%s) has no parent", w.name, i, s.Name)
			}
		}
		if root := spans[0]; sum != root.dur() {
			t.Errorf("%s: self and leaf times sum to %d ns, the root span lasted %d ns", w.name, sum, root.dur())
		}
	}
}

func TestMetricSetRefusesStrays(t *testing.T) {
	m := newMetricSet([]metricSpec{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}})
	m.set("a", 1)
	m.set("a", 2)
	m.set("c", 1)
	m.set("b", math.NaN())
	if len(m.errs) != 3 {
		t.Fatalf("want three refusals (twice, undeclared, NaN), got %q", m.errs)
	}
	if got := m.missing(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("missing = %q, want [b]", got)
	}
	m.zeroRest()
	if b := m.out["b"]; m.out["a"].Value != 1 || b.Value != 0 || b.Unit != "s" {
		t.Fatalf("out = %+v", m.out)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "decide_p50_ms", Better: "lower", Bound: 0.15}
	higher := metricSpec{Name: "tasks_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{99, 100, 101}
	noisy := []float64{80, 100, 120}
	for _, c := range []struct {
		name   string
		spec   metricSpec
		parent metricOut
		change metricOut
		want   string
	}{
		{"within bound", lower, metricOut{Value: 100, Reps: steady}, metricOut{Value: 110, Reps: []float64{110}}, "ok"},
		{"slower beyond bound", lower, metricOut{Value: 100, Reps: steady}, metricOut{Value: 120, Reps: []float64{120}}, "regressed"},
		{"throughput drop", higher, metricOut{Value: 100, Reps: steady}, metricOut{Value: 85, Reps: []float64{85}}, "regressed"},
		{"throughput gain", higher, metricOut{Value: 100, Reps: steady}, metricOut{Value: 150, Reps: []float64{150}}, "ok"},
		{"parent too noisy", lower, metricOut{Value: 100, Reps: noisy}, metricOut{Value: 100, Reps: []float64{95, 100}}, "unresolved"},
		{"noisy but every rep better", lower, metricOut{Value: 100, Reps: noisy}, metricOut{Value: 70, Reps: []float64{65, 70, 75}}, "ok"},
		{"quiet times: halves agree, plain reps do not", lower, metricOut{Value: 100, Reps: noisy, Halves: []float64{100, 103}}, metricOut{Value: 120, Halves: []float64{120, 121}}, "regressed"},
		{"quiet times: halves disagree", lower, metricOut{Value: 100, Reps: steady, Halves: []float64{100, 130}}, metricOut{Value: 110, Halves: []float64{110, 112}}, "unresolved"},
	} {
		if got, _, _ := verdict(c.spec, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // 100 … 1, unsorted
	}
	for p, want := range map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99, 1: 100} {
		if got := percentile(vs, p); got != want {
			t.Errorf("p%.0f = %v, want %v", 100*p, got, want)
		}
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Error("median of an even sample is the mean of the middle two")
	}
}
