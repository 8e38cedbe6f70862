package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/dispatch"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/trace"
)

func TestParseModel(t *testing.T) {
	cases := []struct {
		in   string
		want trace.DriverModel
		ok   bool
	}{
		{"hitchhiking", trace.Hitchhiking, true},
		{"hitch", trace.Hitchhiking, true},
		{"HOME", trace.HomeWorkHome, true},
		{"home-work-home", trace.HomeWorkHome, true},
		{"uber", 0, false},
	}
	for _, tc := range cases {
		got, err := parseModel(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseModel(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseModel(%q) accepted", tc.in)
		}
	}
}

func TestCmdGenJSONAndSolveAndSimulate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "day.json")
	if err := cmdGen([]string{"-tasks", "40", "-drivers", "8", "-seed", "3", "-out", out}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := model.ReadTraceJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 40 || len(tr.Drivers) != 8 {
		t.Fatalf("trace sizes %d/%d", len(tr.Tasks), len(tr.Drivers))
	}

	if err := cmdSolve([]string{"-trace", out, "-bound", "-v"}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	for _, algo := range []string{"maxmargin", "nearest", "random", "batched"} {
		if err := cmdSimulate([]string{"-trace", out, "-algo", algo}); err != nil {
			t.Fatalf("simulate %s: %v", algo, err)
		}
	}
	if err := cmdSimulate([]string{"-trace", out, "-algo", "maxmargin", "-byvalue", "-realtime"}); err != nil {
		t.Fatalf("simulate flags: %v", err)
	}
}

func TestCmdGenCSV(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "day.csv")
	if err := cmdGen([]string{"-tasks", "10", "-drivers", "3", "-out", base}); err != nil {
		t.Fatalf("gen csv: %v", err)
	}
	df, err := os.Open(strings.TrimSuffix(base, ".csv") + "_drivers.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	drivers, err := model.ReadDriversCSV(df)
	if err != nil || len(drivers) != 3 {
		t.Fatalf("drivers csv: %v, %d", err, len(drivers))
	}
	tf, err := os.Open(strings.TrimSuffix(base, ".csv") + "_tasks.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	tasks, err := model.ReadTasksCSV(tf)
	if err != nil || len(tasks) != 10 {
		t.Fatalf("tasks csv: %v, %d", err, len(tasks))
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdSolve(nil); err == nil {
		t.Error("solve without -trace accepted")
	}
	if err := cmdSimulate(nil); err == nil {
		t.Error("simulate without -trace accepted")
	}
	if err := cmdSimulate([]string{"-trace", "/nonexistent.json"}); err == nil {
		t.Error("missing trace file accepted")
	}
	if err := cmdGen([]string{"-model", "teleportation"}); err == nil {
		t.Error("unknown model accepted")
	}
	if err := cmdExperiments([]string{"-scale", "galactic"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := cmdTightness([]string{"-d", "1"}); err == nil {
		t.Error("D=1 tightness accepted")
	}
}

// TestCmdFlagValidation: every command rejects non-positive counts
// (-workers, -reps, -tasks, -drivers) and out-of-range rates
// at the flag boundary with a clear error, instead of misbehaving or
// panicking deep inside the engine — and rejects a flag the chosen mode
// never consults, naming both flags, instead of silently ignoring it.
// The simulate and serve rows that must be refused before the day runs
// get a real trace, so a check that went missing shows as the panic, the
// endless run or the clean exit it used to be, not as a missing file.
func TestCmdFlagValidation(t *testing.T) {
	day := filepath.Join(t.TempDir(), "day.json")
	if err := cmdGen([]string{"-tasks", "20", "-drivers", "4", "-out", day}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	unknown := func(flag string) []string { return []string{"flag provided but not defined: " + flag} }
	cases := []struct {
		name string
		run  func() error
		want []string // substrings of the error, when the wording matters
	}{
		{"gen -tasks 0", func() error { return cmdGen([]string{"-tasks", "0"}) }, nil},
		{"gen -drivers -1", func() error { return cmdGen([]string{"-drivers", "-1"}) }, nil},
		{"gen -churn 1.5", func() error { return cmdGen([]string{"-churn", "1.5"}) }, nil},
		{"gen -cancel -0.1", func() error { return cmdGen([]string{"-cancel", "-0.1"}) }, nil},
		{"experiments -workers 0", func() error { return cmdExperiments([]string{"-workers", "0"}) }, nil},
		{"experiments -workers -3", func() error { return cmdExperiments([]string{"-workers", "-3"}) }, nil},
		{"experiments -reps 0", func() error { return cmdExperiments([]string{"-reps", "0"}) }, nil},
		{"simulate -algo batched -batchwindow 0", func() error {
			return cmdSimulate([]string{"-trace", "x.json", "-algo", "batched", "-batchwindow", "0"})
		}, nil},
		{"simulate -algo batched -batchwindow -5", func() error {
			return cmdSimulate([]string{"-trace", "x.json", "-algo", "batched", "-batchwindow", "-5"})
		}, nil},
		{"simulate -algo replan -replanperiod 0", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "replan", "-replanperiod", "0"})
		}, []string{"-replanperiod", "positive finite"}},
		{"simulate -algo replan -replanperiod -5", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "replan", "-replanperiod", "-5"})
		}, []string{"-replanperiod", "positive finite"}},
		{"simulate -algo replan -replanperiod +Inf", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "replan", "-replanperiod", "+Inf"})
		}, []string{"-replanperiod", "positive finite"}},
		{"simulate -algo replan -replanperiod NaN", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "replan", "-replanperiod", "NaN"})
		}, []string{"-replanperiod", "positive finite"}},
		{"simulate -algo maxmargin -batchwindow", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "maxmargin", "-batchwindow", "10"})
		}, []string{"-batchwindow", "-algo maxmargin"}},
		{"simulate -algo replan -batch-window", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "replan", "-batch-window", "7"})
		}, []string{"-batch-window", "-algo replan"}},
		{"simulate -algo batched -replanperiod", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "batched", "-replanperiod", "5"})
		}, []string{"-replanperiod", "-algo batched"}},
		{"simulate -algo nearest -replanperiod", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "nearest", "-replanperiod", "5"})
		}, []string{"-replanperiod", "-algo nearest"}},
		{"simulate -batchalgo (retired with the auction)", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "batched", "-batchalgo", "auction"})
		}, unknown("-batchalgo")},
		{"simulate -batch-algo (retired with the auction)", func() error {
			return cmdSimulate([]string{"-trace", day, "-algo", "batched", "-batch-algo", "hungarian"})
		}, unknown("-batch-algo")},
		{"solve -naive (retired: only tests run the reference greedy)", func() error {
			return cmdSolve([]string{"-trace", day, "-naive"})
		}, unknown("-naive")},
		{"simulate -algo batched -byvalue", func() error {
			return cmdSimulate([]string{"-trace", "x.json", "-algo", "batched", "-byvalue"})
		}, []string{"-byvalue", "-algo batched"}},
		{"simulate -algo replan -byvalue", func() error {
			return cmdSimulate([]string{"-trace", "x.json", "-algo", "replan", "-byvalue"})
		}, []string{"-byvalue", "-algo replan"}},
		{"serve -match-workers (retired with the window worker pool)", func() error {
			return cmdServe([]string{"-batch-window", "30", "-match-workers", "2"})
		}, []string{"flag provided but not defined: -match-workers"}},
		{"serve -batch-algo (retired with the auction)", func() error {
			return cmdServe([]string{"-batch-window", "30", "-batch-algo", "hungarian"})
		}, unknown("-batch-algo")},
		{"serve -roadnet-cache (retired: serve's street graph is a distance table, with no cache to bound)", func() error {
			return cmdServe([]string{"-roadnet", "-roadnet-cache", "5"})
		}, unknown("-roadnet-cache")},
		{"router -batch-algo (retired with the auction)", func() error {
			return cmdRouter([]string{"-batch-window", "30", "-batch-algo", "auction"})
		}, unknown("-batch-algo")},
		{"serve -drivers 0", func() error { return cmdServe([]string{"-drivers", "0"}) }, nil},
		{"serve -batch-window -1", func() error { return cmdServe([]string{"-batch-window", "-1"}) }, nil},
		{"serve -algo with -batch-window", func() error {
			return cmdServe([]string{"-algo", "nearest", "-batch-window", "30"})
		}, []string{"-algo", "-batch-window"}},
		{"router -algo with -batch-window", func() error {
			return cmdRouter([]string{"-batch-window", "30", "-algo", "nearest"})
		}, []string{"-algo", "-batch-window"}},
		{"serve -drivers with -trace", func() error {
			return cmdServe([]string{"-trace", day, "-drivers", "10"})
		}, []string{"-drivers", "-trace"}},
		{"serve -batch-window NaN", func() error { return cmdServe([]string{"-batch-window", "NaN"}) }, nil},
		{"loadgen -tasks 0", func() error { return cmdLoadgen([]string{"-tasks", "0"}) }, nil},
		{"loadgen -workers 0", func() error { return cmdLoadgen([]string{"-workers", "0"}) }, nil},
		{"loadgen -cancel 2", func() error { return cmdLoadgen([]string{"-cancel", "2"}) }, nil},
		{"loadgen -rate -5", func() error { return cmdLoadgen([]string{"-rate", "-5"}) }, nil},
		{"serve -max-pending -1", func() error { return cmdServe([]string{"-max-pending", "-1"}) }, nil},
	}
	for _, tc := range cases {
		// A row that is not refused may serve or replan for ever.
		done := make(chan error, 1)
		go func() { done <- tc.run() }()
		var err error
		select {
		case err = <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: still running after 20 s", tc.name)
		}
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		for _, sub := range tc.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, sub)
			}
		}
	}
}

func TestCmdTightness(t *testing.T) {
	if err := cmdTightness([]string{"-d", "3", "-eps", "0.05"}); err != nil {
		t.Fatalf("tightness: %v", err)
	}
}

// The tightness command's brute-force call is bounded: a cap that is
// too small fails with a typed, actionable error instead of hanging,
// and a non-positive cap is rejected at the flag boundary.
func TestCmdTightnessMaxPaths(t *testing.T) {
	if err := cmdTightness([]string{"-max-paths", "0"}); err == nil {
		t.Error("-max-paths 0 accepted")
	}
	err := cmdTightness([]string{"-d", "6", "-max-paths", "1"})
	if err == nil {
		t.Fatal("-max-paths 1 solved D=6 — the cap is not reaching the solver")
	}
	if !strings.Contains(err.Error(), "-max-paths") {
		t.Errorf("cap error gives no remediation hint: %v", err)
	}
	if err := cmdTightness([]string{"-d", "3", "-max-paths", "100000"}); err != nil {
		t.Errorf("generous cap failed: %v", err)
	}
}

func TestRunExperimentsRendersRequestedFigures(t *testing.T) {
	cfg := experiments.Config{
		Seed: 1, Tasks: 40, Sweep: []int{5, 10},
		BoundIters: 20, DistSamples: 500,
	}
	var buf bytes.Buffer
	if err := runExperiments(context.Background(), &buf, cfg, "3"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig3") {
		t.Errorf("fig3 missing:\n%s", out)
	}
	if strings.Contains(out, "fig5") {
		t.Errorf("fig5 rendered though only fig3 requested")
	}

	buf.Reset()
	if err := runExperiments(context.Background(), &buf, cfg, "7"); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "fig7") || strings.Contains(out, "fig6") {
		t.Errorf("density figure filtering broken:\n%s", out)
	}

	buf.Reset()
	if err := runExperiments(context.Background(), &buf, cfg, "all"); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
		if !strings.Contains(out, id) {
			t.Errorf("%s missing from -fig all output", id)
		}
	}
}

func TestCmdGenChurnAndSimulate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "churnday.json")
	if err := cmdGen([]string{"-tasks", "60", "-drivers", "12", "-seed", "5",
		"-churn", "0.4", "-cancel", "0.3", "-out", out}); err != nil {
		t.Fatalf("gen with churn: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := model.ReadTraceJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("gen -churn/-cancel wrote a trace without events")
	}
	// The embedded events replay through every dispatcher.
	for _, algo := range []string{"maxmargin", "batched", "replan"} {
		if err := cmdSimulate([]string{"-trace", out, "-algo", algo}); err != nil {
			t.Fatalf("simulate %s: %v", algo, err)
		}
	}
	// By-value runs cannot replay time-ordered events.
	if err := cmdSimulate([]string{"-trace", out, "-algo", "maxmargin", "-byvalue"}); err == nil {
		t.Fatal("simulate -byvalue accepted a trace with events")
	}
	// Flag override replaces the embedded events.
	if err := cmdSimulate([]string{"-trace", out, "-churn", "0.1", "-cancel", "0.1"}); err != nil {
		t.Fatalf("simulate churn override: %v", err)
	}
}

// TestDamagedTailRefusalNamesRepairLog: serve and router refuse to
// resume a log whose final record fails its checksum, and the refusal
// names dispatch.RepairLog, after which the log resumes.
func TestDamagedTailRefusalNamesRepairLog(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "porto")
	tr := trace.NewGenerator(trace.NewConfig(3, 6, 10, trace.Hitchhiking)).Generate(nil)
	var m dispatch.Market
	for i, d := range tr.Drivers {
		m.Drivers = append(m.Drivers, toDispatchDriver(i, d))
	}
	svc, err := dispatch.New(m, dispatch.WithDurability(dir, dispatch.DurFsync("off")))
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range tr.Tasks {
		if _, err := svc.SubmitTask(context.Background(), toDispatchTask(i, tk)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Halt(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-3] ^= 0x20
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}

	for name, run := range map[string]func() error{
		"serve": func() error { return cmdServe([]string{"-addr", "127.0.0.1:0", "-wal-dir", dir}) },
		"router": func() error {
			return cmdRouter([]string{"-addr", "127.0.0.1:0", "-markets", "porto", "-wal-dir", root})
		},
	} {
		if err := run(); !errors.Is(err, dispatch.ErrLogCorruptTail) || !strings.Contains(err.Error(), "dispatch.RepairLog") {
			t.Errorf("%s over a damaged tail: %v; want ErrLogCorruptTail naming dispatch.RepairLog", name, err)
		}
	}
	if _, err := dispatch.RepairLog(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := dispatch.Restore(dir)
	if err != nil {
		t.Fatalf("Restore after RepairLog: %v", err)
	}
	restored.Halt()
}
