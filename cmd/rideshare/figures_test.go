package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/figures from the current build")

// goldenFigures are the figures TestFiguresGolden holds to their bytes:
// every one `rideshare experiments` prints but Fig. 5, whose column
// generation takes seconds at bench scale and is checked by hand.
var goldenFigures = []string{"3", "4", "6", "7", "8", "9", "welfare", "surge", "dispatch", "regret", "churn"}

// TestFiguresGolden renders each figure at bench scale through the path
// `rideshare experiments -fig <fig>` prints with, at its default flags,
// and compares the bytes with testdata/figures/<fig>.txt. A change that
// moves a figure regenerates the files with
//
//	go test ./cmd/rideshare -run TestFiguresGolden -update
//
// and says in its change note which figure moved, which cells, and why.
func TestFiguresGolden(t *testing.T) {
	cfg := experiments.Default()
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.Replications = 1
	for _, fig := range goldenFigures {
		t.Run(fig, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runExperiments(context.Background(), &buf, cfg, fig); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "figures", fig+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (write it with -update)", err)
			}
			if row, got, exp, ok := firstDiff(buf.Bytes(), want); !ok {
				t.Errorf("fig %s differs from %s at row %d:\n got  %q\n want %q", fig, path, row, got, exp)
			}
		})
	}
}

// firstDiff compares got with want row by row and returns the first row
// (from 1) where they differ, with both versions of it — an empty one
// past the end of its text — or ok when they are equal.
func firstDiff(got, want []byte) (row int, g, w string, ok bool) {
	if bytes.Equal(got, want) {
		return 0, "", "", true
	}
	gs, ws := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		var a, b []byte
		if i < len(gs) {
			a = gs[i]
		}
		if i < len(ws) {
			b = ws[i]
		}
		if !bytes.Equal(a, b) || i >= len(gs) || i >= len(ws) {
			return i + 1, string(a), string(b), false
		}
	}
}
