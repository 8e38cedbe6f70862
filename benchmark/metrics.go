package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// metricSpec is one metric declared in BENCHMARK.json. The file is the
// single definition of names, units, directions and bounds: the program
// reads it at start and refuses to emit a metric it does not declare.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricOut is one reported number. Reps holds the per-rep values of an
// end-to-end metric: the ones its median was taken over, or for a
// quiet-time metric each rep's plain value, beside Halves, the metric
// over the even and over the odd reps alone.
type metricOut struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Reps   []float64 `json:"reps,omitempty"`
	Halves []float64 `json:"halves,omitempty"`
}

// metricSet collects one pass's metrics against the declared list.
type metricSet struct {
	specs []metricSpec
	out   map[string]metricOut
	errs  []string
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, out: map[string]metricOut{}}
}

// set records a metric once; an undeclared name, a second value or a
// value that is not a finite number is a failed check.
func (m *metricSet) set(name string, v float64, reps ...float64) {
	i := slices.IndexFunc(m.specs, func(s metricSpec) bool { return s.Name == name })
	_, dup := m.out[name]
	switch {
	case i < 0:
		m.errs = append(m.errs, "metric not declared in BENCHMARK.json: "+name)
	case dup:
		m.errs = append(m.errs, "metric emitted twice: "+name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.errs = append(m.errs, fmt.Sprintf("metric %s is %v", name, v))
	default:
		m.out[name] = metricOut{Value: v, Unit: m.specs[i].Unit, Reps: reps}
	}
}

// halves adds to a metric already set its value over each half of the reps.
func (m *metricSet) halves(name string, vs []float64) {
	if mo, ok := m.out[name]; ok {
		mo.Halves = vs
		m.out[name] = mo
	}
}

// zeroRest gives every declared metric the pass did not set the value
// 0: the layer took no part in this workload.
func (m *metricSet) zeroRest() {
	for _, s := range m.specs {
		if _, ok := m.out[s.Name]; !ok {
			m.out[s.Name] = metricOut{Unit: s.Unit}
		}
	}
}

func (m *metricSet) missing() []string {
	var names []string
	for _, s := range m.specs {
		if _, ok := m.out[s.Name]; !ok {
			names = append(names, s.Name)
		}
	}
	return names
}

// The few statistics below are the benchmark's own rather than
// internal/stats': the measuring stick must not move with the code it
// measures.

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile of an unsorted sample.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(p*float64(len(s))))-1)]
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
