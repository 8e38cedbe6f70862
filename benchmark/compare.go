package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much worse b is than a as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// samples are the values that say how settled a metric is within its
// run: the halves of a quiet-time metric, the reps of any other.
func (m metricOut) samples() []float64 {
	if m.Halves != nil {
		return m.Halves
	}
	return m.Reps
}

// verdict applies one metric's bound to its parent and change values.
// A metric whose parent samples spread wider than the bound is
// unresolved, not unchanged — unless every sample of the change beats
// every sample of the parent.
func verdict(s metricSpec, parent, change metricOut) (string, float64, float64) {
	worse := worseBy(s.Better, parent.Value, change.Value)
	spread := 0.0
	if ps := parent.samples(); len(ps) >= 2 && parent.Value != 0 {
		spread = (slices.Max(ps) - slices.Min(ps)) / parent.Value
	}
	if spread > s.Bound {
		allBetter := len(change.samples()) > 0
		for _, c := range change.samples() {
			for _, p := range parent.samples() {
				if worseBy(s.Better, p, c) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", worse, spread
		}
		return "ok", worse, spread
	}
	if worse > s.Bound {
		return "regressed", worse, spread
	}
	return "ok", worse, spread
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row regressed.
func compareFiles(spec *benchSpec, parentPath, changePath string) (bool, error) {
	parent, err := readReport(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readReport(changePath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(parent.Workloads))
	for name := range parent.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed := false
	fmt.Printf("%-16s %-18s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	for _, name := range names {
		pw, cw := parent.Workloads[name], change.Workloads[name]
		if cw == nil {
			fmt.Printf("%-16s missing from %s\n", name, changePath)
			regressed = true
			continue
		}
		if cw.Failed > pw.Failed || !cw.Correct {
			fmt.Printf("%-16s %-18s %14d %14d %42s\n", name, "failed", pw.Failed, cw.Failed, "regressed")
			regressed = true
		}
		for _, s := range spec.EndToEnd {
			pm, pok := pw.EndToEnd[s.Name]
			cm, cok := cw.EndToEnd[s.Name]
			if !pok || !cok {
				continue
			}
			v, worse, spread := verdict(s, pm, cm)
			regressed = regressed || v == "regressed"
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				name, s.Name, pm.Value, cm.Value, 100*worse, 100*spread, 100*s.Bound, v)
		}
	}
	return regressed, nil
}
