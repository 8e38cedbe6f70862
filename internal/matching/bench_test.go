package matching

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the window-matching kernels: the dense
// Hungarian oracle against the sparse solver, across the sparsity range
// batched dispatch actually sees.
// Dense instances cost the same whatever the sparsity (the virtual
// square is materialized either way); the sparse kernel's cost tracks
// the edge count and the component structure, which is the whole point.
// CI runs these at -benchtime 1x as a bit-rot smoke; end-to-end window
// measurements belong to the batched workloads of benchmark/.

// benchInstance builds a reproducible rows×cols instance at the given
// edge density, weights continuous positive-biased like window margins.
func benchInstance(rows, cols int, density float64) (Sparse, [][]float64) {
	rng := rand.New(rand.NewSource(42))
	sp := Sparse{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() >= density {
				continue
			}
			sp.Col = append(sp.Col, c)
			sp.W = append(sp.W, rng.Float64()*10+0.1)
		}
		sp.RowPtr[r+1] = len(sp.Col)
	}
	return sp, denseOf(sp)
}

func BenchmarkWindowKernels(b *testing.B) {
	for _, size := range []struct{ rows, cols int }{{16, 128}, {48, 512}} {
		for _, density := range []float64{0.50, 0.10, 0.02} {
			sp, w := benchInstance(size.rows, size.cols, density)
			name := fmt.Sprintf("%dx%d/density=%.2f", size.rows, size.cols, density)
			b.Run("dense-hungarian/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Hungarian(w); err != nil {
						b.Fatal(err)
					}
				}
			})
			var solver SparseSolver
			b.Run("sparse-hungarian/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := solver.Solve(sp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
