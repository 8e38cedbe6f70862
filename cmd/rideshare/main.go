// Command rideshare is the CLI front end of the ride-sharing market
// optimization framework. Subcommands:
//
//	gen          generate a synthetic Porto-like trace (CSV or JSON),
//	             optionally with churn/cancellation events
//	solve        run the offline greedy algorithm on a trace
//	simulate     run an online dispatcher over a trace (optionally
//	             with driver churn and rider cancellations)
//	experiments  regenerate the paper's evaluation figures (3–9) and
//	             the extension studies (welfare, surge, dispatch, churn)
//	serve        run the live dispatch market as an HTTP/JSON service
//	             over the public dispatch package — instant dispatch, or
//	             windowed batch matching with -batch-window; durable with
//	             -wal-dir (write-ahead log, snapshots, crash recovery);
//	             street-graph travel times with -roadnet (the default
//	             20×24 grid, every node pair read from a distance table)
//	router       federate several markets behind one HTTP router:
//	             /v1/markets/{m}/... per market, aggregated healthz and
//	             stats, per-market WALs, rolling restart via recovery
//	loadgen      drive a running serve instance (or one router market
//	             with -market) with a generated order stream (concurrent
//	             submitters, cancellations)
//	tightness    demonstrate the greedy algorithm's tight 1/(D+1) bound
//
// Run `rideshare <subcommand> -h` for per-command flags.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "router":
		err = cmdRouter(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "tightness":
		err = cmdTightness(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "rideshare: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rideshare: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `rideshare — online ride-sharing market optimization framework

Usage:
  rideshare gen         -tasks N -drivers N [-model hitchhiking|home] [-seed S] [-churn R] [-cancel R] [-out trace.json]
  rideshare solve       -trace trace.json [-bound] [-v]
  rideshare simulate    -trace trace.json [-algo maxmargin|nearest|random | -algo batched [-batchwindow W] | -algo replan [-replanperiod P]] [-churn R] [-cancel R] [-byvalue] [-realtime]
  rideshare experiments [-fig 3|4|5|6|7|8|9|welfare|surge|dispatch|churn|regret|all] [-scale bench|paper] [-seed S]
  rideshare serve       [-addr :8080] [-drivers N | -trace trace.json] [-algo maxmargin|nearest|random | -batch-window W] [-roadnet] [-realtime] [-seed S] [-wal-dir DIR [-fsync always|interval|off] [-snapshot-every N]]
  rideshare router      [-addr :8080] [-markets a,b,c] [-drivers N] [-algo P | -batch-window W] [-max-pending N] [-max-inflight N] [-wal-dir DIR [-fsync P] [-snapshot-every N]]
  rideshare loadgen     [-addr http://127.0.0.1:8080] [-market NAME] [-tasks N] [-id-base N] [-workers N] [-cancel R] [-seed S]
  rideshare tightness   [-d D] [-eps E]
`)
}
