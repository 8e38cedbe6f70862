package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/dispatch"
	"repro/internal/fed"
	"repro/internal/trace"
)

// cmdRouter is the multi-market front end: one dispatch.Service per
// named market, federated behind fed.Router. Each market runs the same
// configuration (fleet size, policy, admission bound) over its own
// independently-seeded fleet and, with -wal-dir, its own write-ahead
// log in <wal-dir>/<market> — which makes POST
// /v1/markets/{m}/restart a genuine rolling restart: that market is
// halted crash-consistently and restored from its log while the others
// keep serving. Markets whose logs already exist are recovered on
// startup, so a router restart resumes every market's day.
func cmdRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	marketsFlag := fs.String("markets", "porto,lisbon,braga", "comma-separated market names, one dispatch service each")
	drivers := fs.Int("drivers", 1000, "synthetic fleet size per market")
	seed := fs.Int64("seed", 1, "base seed; market i uses seed+i for its fleet")
	algo := fs.String("algo", "maxmargin", "dispatch policy: maxmargin, nearest or random")
	batchWindow := fs.Float64("batch-window", 0, "batched dispatch window in seconds (0 = instant dispatch)")
	maxPending := fs.Int("max-pending", 0, "per-market admission bound: shed submissions with 429 at this many pending (0 = unbounded)")
	maxInflight := fs.Int("max-inflight", 0, "per-market router-level bound on concurrent in-flight requests; excess answers 429 (0 = unbounded)")
	walDir := fs.String("wal-dir", "", "durable mode: root directory, one write-ahead log per market in <dir>/<market>; existing logs are recovered")
	fsyncMode := fs.String("fsync", "always", "WAL fsync policy: always, interval or off (needs -wal-dir)")
	snapEvery := fs.Int("snapshot-every", 4096, "WAL records between full-state snapshots (needs -wal-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := splitMarkets(*marketsFlag)
	if len(names) == 0 {
		return fmt.Errorf("router: -markets %q names no markets", *marketsFlag)
	}
	if err := checkPositive("router", map[string]int{"-drivers": *drivers}); err != nil {
		return err
	}
	if err := checkBatchWindow("router", *batchWindow); err != nil {
		return err
	}
	if *maxPending < 0 || *maxInflight < 0 {
		return fmt.Errorf("router: -max-pending %d / -max-inflight %d, want ≥ 0", *maxPending, *maxInflight)
	}
	if err := checkAlgoUnused("router", fs, *batchWindow); err != nil {
		return err
	}
	if *walDir == "" {
		if durSet := explicitFlag(fs, "fsync", "snapshot-every"); durSet != "" {
			return fmt.Errorf("router: %s needs -wal-dir (there is no log to tune)", durSet)
		}
	}
	policy, err := dispatch.ParsePolicy(*algo)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}

	done := make(chan struct{})
	rt := fed.NewRouter(done)
	for i, name := range names {
		mseed := *seed + int64(i)
		market := dispatch.Market{}
		cfg := trace.NewConfig(mseed, 1, *drivers, trace.Hitchhiking)
		for j, d := range trace.NewGenerator(cfg).GenerateDrivers() {
			market.Drivers = append(market.Drivers, toDispatchDriver(j, d))
		}
		opts := []dispatch.Option{dispatch.WithDispatcher(policy), dispatch.WithSeed(mseed)}
		if *batchWindow > 0 {
			opts = append(opts, dispatch.WithBatching(*batchWindow, dispatch.Hungarian))
		}
		if *maxPending > 0 {
			opts = append(opts, dispatch.WithMaxPending(*maxPending))
		}

		m := fed.Market{Name: name, MaxInflight: *maxInflight}
		if *walDir != "" {
			dir := filepath.Join(*walDir, name)
			durOpts := []dispatch.DurOption{dispatch.DurFsync(*fsyncMode), dispatch.DurSnapshotEvery(*snapEvery)}
			svc, err := dispatch.Restore(dir, durOpts...)
			switch {
			case err == nil:
				fmt.Fprintf(os.Stderr, "router: market %s recovered from %s\n", name, dir)
			case errors.Is(err, dispatch.ErrLogNotFound):
				svc, err = dispatch.New(market, append(opts, dispatch.WithDurability(dir, durOpts...))...)
				if err != nil {
					return fmt.Errorf("router: market %s: %w", name, err)
				}
			default:
				return fmt.Errorf("router: recovering market %s: %w%s", name, err, repairHint(err))
			}
			m.Svc, m.WALDir, m.DurOpts = svc, dir, durOpts
		} else {
			svc, err := dispatch.New(market, opts...)
			if err != nil {
				return fmt.Errorf("router: market %s: %w", name, err)
			}
			m.Svc = svc
		}
		if err := rt.Register(m); err != nil {
			return fmt.Errorf("router: %w", err)
		}
	}

	srv := newHTTPServer(*addr, rt.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "router: %d markets (%s), %d drivers each, listening on %s\n",
		len(names), strings.Join(names, ", "), *drivers, *addr)

	select {
	case err := <-errc:
		rt.Close()
		return fmt.Errorf("router: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "router: shutting down")
	close(done)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	stats, err := rt.Close()
	if err != nil {
		return fmt.Errorf("router: close: %w", err)
	}
	for _, name := range sortedKeys(stats) {
		st := stats[name]
		fmt.Fprintf(os.Stderr, "router: %s settled: tasks=%d served=%d rejected=%d cancelled=%d revenue=%.2f\n",
			name, st.Tasks, st.Served, st.Rejected, st.Cancelled, st.Revenue)
	}
	return nil
}

// splitMarkets parses the -markets list, trimming blanks.
func splitMarkets(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

func sortedKeys(m map[string]dispatch.Stats) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
