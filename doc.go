// Package repro is a from-scratch Go reproduction of "An Optimization
// Framework For Online Ride-sharing Markets" (Jia, Xu, Liu — ICDCS
// 2017), grown into a system that serves the paper's online market as
// live traffic: a generalized two-sided market model, an offline greedy
// algorithm with a tight 1/(D+1) approximation ratio, online dispatch
// heuristics over an event-driven engine with a spatial candidate
// index, and a streaming dispatch service with an HTTP front end.
//
// Start at the dispatch package — the repository's public API and the
// intended entry point for consumers:
//
//	svc, _ := dispatch.New(dispatch.Market{Drivers: fleet},
//	    dispatch.WithDispatcher(dispatch.MaxMargin))
//	a, _ := svc.SubmitTask(ctx, order) // instant decision
//	stats, _ := svc.Close()            // settled books
//
// It exposes the market open-loop — submit a task now, get an
// assignment now, with drivers joining, retiring and riders cancelling
// while the market runs — and guarantees that replaying a whole day
// through it is bit-identical to the internal batch simulator. A
// service built dispatch.WithBatching(window, dispatch.Hungarian) runs
// the paper's batched mode on the same loop: orders accumulate per
// window, an exact maximum-weight matching clears each window at its
// close, and SubmitTask answers with a pending handle resolved on the
// event feed. `rideshare serve` puts the same service behind HTTP/JSON
// (see cmd/rideshare); the package's Example functions, whose output go
// test checks, are runnable starting points.
//
// The reproduction itself lives under internal/ (see DESIGN.md for the
// module map): the offline algorithms and bounds, the trace-driven
// evaluation harness regenerating every figure of the paper's §VI, and
// the simulator core. The benchmarks in this package regenerate the
// paper's tables and figures — see EXPERIMENTS.md.
package repro
