package offline_test

import (
	"testing"

	"repro/internal/offline"
	"repro/internal/trace"
)

// BenchmarkCompileHindsight prices the trace→instance compiler at a
// bench-scale day (a 12k-order city day scaled down ~10x so the CI
// bench smoke finishes).
func BenchmarkCompileHindsight(b *testing.B) {
	cfg := trace.NewConfig(7, 1200, 5000, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(7, 0.2, 0.15))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := offline.Compile(cfg.Market, tr, offline.Options{
			Objective: offline.ObjectiveRevenue, TopK: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if in.NComp == 0 {
			b.Fatal("no components")
		}
	}
}
