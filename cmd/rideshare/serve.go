package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof-addr
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/dispatch"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/trace"
)

// This file is the live front end: `rideshare serve` exposes a
// dispatch.Service over HTTP/JSON so the market actually serves
// traffic instead of replaying traces. The API is deliberately small:
//
//	GET  /healthz                    liveness + market shape
//	POST /v1/tasks                   submit a task, get the decision
//	GET  /v1/tasks/{id}              current decision (pending on a batched market)
//	POST /v1/tasks/{id}/cancel       rider cancellation   {"at": t}
//	POST /v1/drivers                 announce a driver
//	POST /v1/drivers/{id}/retire     retire a driver      {"at": t}
//	GET  /v1/stats                   settled aggregate stats
//	GET  /v1/events                  assignment feed (server-sent events)
//
// With -batch-window W the market dispatches in batched mode: POST
// /v1/tasks answers {"pending":true,"decide_by":...}, the decision and
// each window's batch_closed stats stream out on /v1/events, and GET
// /v1/tasks/{id} polls the decision. -realtime additionally closes due
// windows on the wall clock, so a quiet market still answers.
//
// With -wal-dir the market is durable: every mutation is journaled to a
// write-ahead log before it is applied (fsync policy under -fsync),
// periodic snapshots bound replay, graceful shutdown (SIGINT) fsyncs
// the tail and writes a final snapshot, and a restart over the same
// directory recovers the log — after a crash, from the newest snapshot
// plus the journal suffix — and resumes the market where it stopped.
//
// The HTTP surface itself is fed.MarketHandler, shared with the
// multi-market `rideshare router` (router.go). `rideshare loadgen`
// (loadgen.go) is the matching traffic generator.

// Limits every listener of `serve` and `router` applies to untrusted
// peers. The largest legitimate request body (one task or driver) is a
// few hundred bytes.
const (
	readHeaderTimeout = 10 * time.Second
	maxBodyBytes      = 64 << 10
)

// newHTTPServer is the one place the market listeners are configured:
// a peer that never finishes its headers is dropped after
// readHeaderTimeout, a declared body over maxBodyBytes is answered 413
// before the market handler runs, and an undeclared (chunked) one is cut
// off at the cap by http.MaxBytesHandler, which the market handler
// reports as a malformed body. The limits wrap the handler here rather
// than inside fed.MarketHandler so in-process users of that handler see
// it unchanged.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	capped := http.MaxBytesHandler(h, maxBodyBytes)
	return &http.Server{
		Addr:              addr,
		ReadHeaderTimeout: readHeaderTimeout,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.ContentLength > maxBodyBytes {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusRequestEntityTooLarge)
				fmt.Fprintf(w, "{\"error\":\"request body of %d bytes exceeds the %d-byte limit\"}\n",
					r.ContentLength, maxBodyBytes)
				return
			}
			capped.ServeHTTP(w, r)
		}),
	}
}

// repairHint is what serve and router add to a refusal to resume a
// log: for a damaged final record, the way forward; nothing otherwise.
func repairHint(err error) string {
	if errors.Is(err, dispatch.ErrLogCorruptTail) {
		return " (dispatch.RepairLog truncates the damaged final record, losing the one input it journaled; the market then resumes without it)"
	}
	return ""
}

// toDispatchDriver and toDispatchTask convert internal trace types to
// the public API types, registering the slice index as the public ID.
// JoinAt stays zero: trace fleets are known upfront.
func toDispatchDriver(i int, d model.Driver) dispatch.Driver {
	return dispatch.Driver{
		ID: i, Source: dispatch.Point(d.Source), Dest: dispatch.Point(d.Dest),
		Start: d.Start, End: d.End, SpeedKmh: d.SpeedKmh,
	}
}

func toDispatchTask(i int, t model.Task) dispatch.Task {
	return dispatch.Task{
		ID: i, Publish: t.Publish, Source: dispatch.Point(t.Source), Dest: dispatch.Point(t.Dest),
		StartBy: t.StartBy, EndBy: t.EndBy, Price: t.Price, WTP: t.WTP,
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	tracePath := fs.String("trace", "", "optional trace JSON supplying the initial fleet (tasks and events in it are ignored)")
	drivers := fs.Int("drivers", 1000, "synthetic fleet size when no -trace is given")
	seed := fs.Int64("seed", 1, "fleet generation and tie-breaking seed")
	algo := fs.String("algo", "maxmargin", "dispatch policy: maxmargin, nearest or random")
	realTime := fs.Bool("realtime", false, "free drivers at real trip finish times instead of deadlines (and close due batch windows on the wall clock)")
	batchWindow := fs.Float64("batch-window", 0, "batched dispatch: accumulate orders for this many seconds and clear each window with a maximum-weight matching (0 = instant dispatch)")
	maxPending := fs.Int("max-pending", 0, "admission bound: shed submissions with 429 once the open batch window (batched) or the submissions in flight (instant) reach this many (0 = unbounded)")
	useRoadnet := fs.Bool("roadnet", false, "route every distance over the synthetic street graph instead of crow-fly (network-accurate travel times; journals with -wal-dir)")
	pprofAddr := fs.String("pprof-addr", "", "optional listen address for a net/http/pprof debug server (e.g. localhost:6060) with mutex profiling enabled; empty disables it")
	walDir := fs.String("wal-dir", "", "durable mode: write-ahead-log directory; an existing log is recovered and the market resumes where it stopped")
	fsyncMode := fs.String("fsync", "always", "WAL fsync policy: always, interval or off (needs -wal-dir)")
	snapEvery := fs.Int("snapshot-every", 4096, "WAL records between full-state snapshots (needs -wal-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walDir == "" {
		// -fsync/-snapshot-every tune the write-ahead log; without one
		// they would be silently ignored — reject them instead.
		if durSet := explicitFlag(fs, "fsync", "snapshot-every"); durSet != "" {
			return fmt.Errorf("serve: %s needs -wal-dir (there is no log to tune)", durSet)
		}
	}
	if *maxPending < 0 {
		return fmt.Errorf("serve: -max-pending %d, want ≥ 0", *maxPending)
	}
	if *tracePath == "" {
		if err := checkPositive("serve", map[string]int{"-drivers": *drivers}); err != nil {
			return err
		}
	} else if explicitFlag(fs, "drivers") != "" {
		return fmt.Errorf("serve: -drivers sizes the synthetic fleet and is not consulted with -trace, which supplies the fleet (drop one flag)")
	}
	if err := checkBatchWindow("serve", *batchWindow); err != nil {
		return err
	}
	if err := checkAlgoUnused("serve", fs, *batchWindow); err != nil {
		return err
	}
	policy, err := dispatch.ParsePolicy(*algo)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	market := dispatch.Market{}
	var fleet []model.Driver
	if *tracePath != "" {
		tr, err := loadTrace(*tracePath)
		if err != nil {
			return err
		}
		fleet = tr.Drivers
	} else {
		cfg := trace.NewConfig(*seed, 1, *drivers, trace.Hitchhiking)
		fleet = trace.NewGenerator(cfg).GenerateDrivers()
	}
	for i, d := range fleet {
		market.Drivers = append(market.Drivers, toDispatchDriver(i, d))
	}

	opts := []dispatch.Option{dispatch.WithDispatcher(policy), dispatch.WithSeed(*seed)}
	if *realTime {
		opts = append(opts, dispatch.WithRealTime())
	}
	if *batchWindow > 0 {
		opts = append(opts, dispatch.WithBatching(*batchWindow, dispatch.Hungarian))
	}
	if *maxPending > 0 {
		opts = append(opts, dispatch.WithMaxPending(*maxPending))
	}
	if *useRoadnet {
		opts = append(opts, dispatch.WithRoadNetwork(dispatch.RoadNetwork{}))
	}
	var svc *dispatch.Service
	restored := false
	if *walDir != "" {
		durOpts := []dispatch.DurOption{dispatch.DurFsync(*fsyncMode), dispatch.DurSnapshotEvery(*snapEvery)}
		svc, err = dispatch.Restore(*walDir, durOpts...)
		switch {
		case err == nil:
			// The log is self-contained: market and dispatch config come
			// from it, so the shape flags above are not consulted.
			restored = true
			fmt.Fprintf(os.Stderr, "serve: recovered log in %s, resuming the market (shape flags ignored; config comes from the log)\n", *walDir)
		case errors.Is(err, dispatch.ErrLogNotFound):
			opts = append(opts, dispatch.WithDurability(*walDir, durOpts...))
			svc, err = dispatch.New(market, opts...)
			if err != nil {
				return fmt.Errorf("serve: %w", err)
			}
		default:
			return fmt.Errorf("serve: recovering %s: %w%s", *walDir, err, repairHint(err))
		}
	} else {
		svc, err = dispatch.New(market, opts...)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}

	// The profiling server lives on its own listener so the debug
	// surface never shares a port with the market API; it serves the
	// default mux, where the net/http/pprof import registered its
	// handlers, and is shut down with the main listener below — a
	// leaked debug port must not outlive the market. Mutex profiling is
	// sampled only while the rail is up: /debug/pprof/mutex is how a
	// convoy on the service lock shows up under load. See
	// EXPERIMENTS.md for the loadgen-driven profiling recipe.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		runtime.SetMutexProfileFraction(5)
		defer runtime.SetMutexProfileFraction(0)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: readHeaderTimeout}
		go func() {
			fmt.Fprintf(os.Stderr, "serve: pprof on http://%s/debug/pprof/\n", pprofSrv.Addr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "serve: pprof server: %v\n", err)
			}
		}()
	}

	// done unblocks long-lived handlers (the SSE feed) ahead of
	// srv.Shutdown, which waits for handlers to return — without it a
	// single connected /v1/events client would hold graceful shutdown
	// to its full timeout.
	done := make(chan struct{})
	srv := newHTTPServer(*addr, fed.MarketHandler(svc, done))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if restored {
		if st, serr := svc.Snapshot(context.Background()); serr == nil {
			fmt.Fprintf(os.Stderr, "serve: %d drivers, %d tasks replayed to t=%.0fs, listening on %s\n",
				st.Drivers, st.Tasks, st.Now, *addr)
		}
	} else {
		mode := fmt.Sprintf("policy %v", policy)
		if *batchWindow > 0 {
			mode = fmt.Sprintf("batched %gs/%v", *batchWindow, dispatch.Hungarian)
		}
		if *useRoadnet {
			mode += ", street-graph metric"
		}
		fmt.Fprintf(os.Stderr, "serve: %d drivers, %s, listening on %s\n",
			len(market.Drivers), mode, *addr)
	}

	select {
	case err := <-errc:
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		svc.Close()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "serve: shutting down")
	close(done)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(shutCtx); err != nil {
			pprofSrv.Close()
		}
	}
	stats, err := svc.Close()
	if err != nil {
		return fmt.Errorf("serve: close: %w", err)
	}
	fmt.Fprintf(os.Stderr, "serve: final stats: tasks=%d served=%d rejected=%d cancelled=%d revenue=%.2f profit=%.2f\n",
		stats.Tasks, stats.Served, stats.Rejected, stats.Cancelled, stats.Revenue, stats.Profit)
	return nil
}
