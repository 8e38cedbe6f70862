package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// passResult is one pass over one workload.
type passResult struct {
	metrics   *metricSet
	attempted int
	failed    int
	errs      []string
	books     *books // nil on http_instant: two connections race, the books are not fixed

	reps          int
	decideSamples []int   // per untraced rep
	genLagMsMax   float64 // http_instant
	spans         []span
}

func (p *passResult) absorb(r *runResult) {
	p.attempted += r.attempted
	p.failed += r.failed
	p.errs = append(p.errs, r.errs...)
}

// run drives the workload's day once in its own form.
func run(d *day, hs *handlerStats) (*runResult, *httpResult) {
	if d.w.http {
		h := runHTTP(d, hs)
		return &h.runResult, h
	}
	return runLibrary(d, d.w.durable), nil
}

// setupSamples is how many set-ups the untraced pass wants behind
// setup_s, as long as the extra ones fit in a second.
const setupSamples = 15

// untracedPass measures the end-to-end metrics: fresh-service reps of
// the day for as long as another fits the time budget, at least minReps
// of them. Counts are medians over reps. Times are quiet times: a step
// of the day does the same work in every rep, so its time is taken from
// the rep in which it ran fastest — the host only ever adds time — and
// throughput and the decision percentile are computed over those.
func untracedPass(d *day, spec *benchSpec, seconds float64, minReps int) *passResult {
	p := &passResult{metrics: newMetricSet(spec.EndToEnd)}
	var setup, tput, p95, allocs, allocKB, served []float64
	var first *runResult
	var steps [][]int64 // per rep
	begin := time.Now()
	for p.reps < max(minReps, 1) || time.Since(begin).Seconds()*float64(p.reps+1)/float64(p.reps) < seconds {
		r, h := run(d, nil)
		p.absorb(r)
		if len(r.errs) > 0 {
			return p
		}
		p.reps++
		sent := float64(len(d.pub))
		setup = append(setup, r.setupS)
		tput = append(tput, float64(r.orders)/r.wallS)
		p95 = append(p95, percentile(r.decideMs(), 0.95))
		allocs = append(allocs, float64(r.mem.mallocs)/sent)
		allocKB = append(allocKB, float64(r.mem.bytes)/1024/sent)
		served = append(served, float64(r.books.Served)/sent)
		p.decideSamples = append(p.decideSamples, len(r.decide))
		if h != nil {
			p.genLagMsMax = max(p.genLagMsMax, h.open.lagMsMax)
		} else if p.books == nil {
			b := r.books
			p.books = &b
		} else if !r.books.equal(*p.books) {
			p.errs = append(p.errs, fmt.Sprintf("rep %d settled %+v, rep 1 settled %+v", p.reps, r.books, *p.books))
		}
		// p95 needs ten samples beyond it.
		if len(r.decide) < 200 {
			p.errs = append(p.errs, fmt.Sprintf("only %d decision samples in a rep, p95 needs 200", len(r.decide)))
		}
		if first == nil {
			first = r
		} else if len(r.stepNs) != len(first.stepNs) || !slices.Equal(r.decide, first.decide) {
			p.errs = append(p.errs, fmt.Sprintf("rep %d took %d steps and decided in %d of them, rep 1 %d and %d: the day is not the same",
				p.reps, len(r.stepNs), len(r.decide), len(first.stepNs), len(first.decide)))
			return p
		}
		steps = append(steps, r.stepNs)
	}
	// Set-up is cheap beside a day on most workloads, so sample it a
	// few more times: its quiet time is compared across runs like the rest.
	for extra := time.Now(); len(setup) < setupSamples && time.Since(extra) < time.Second; {
		s, err := timeSetup(d)
		if err != nil {
			p.errs = append(p.errs, fmt.Sprintf("extra set-up: %v", err))
			break
		}
		setup = append(setup, s)
	}
	// The quiet-time metrics over all reps, and over the even and the odd
	// ones alone: halves that disagree say the run was too disturbed to
	// settle.
	quietTput, quietP95 := quietMetrics(first, steps)
	var tputHalves, p95Halves []float64
	for start := 0; start < min(2, len(steps)-1); start++ {
		var half [][]int64
		for i := start; i < len(steps); i += 2 {
			half = append(half, steps[i])
		}
		t, l := quietMetrics(first, half)
		tputHalves, p95Halves = append(tputHalves, t), append(p95Halves, l)
	}
	// Set-up is one step too: the same fleet, graph and log every time.
	var setupHalves []float64
	for start := 0; start < min(2, len(setup)-1); start++ {
		half := setup[start]
		for i := start; i < len(setup); i += 2 {
			half = min(half, setup[i])
		}
		setupHalves = append(setupHalves, half)
	}
	m := p.metrics
	m.set("setup_s", slices.Min(setup), setup...)
	m.halves("setup_s", setupHalves)
	m.set("tasks_per_s", quietTput, tput...)
	m.set("decide_p95_ms", quietP95, p95...)
	m.halves("tasks_per_s", tputHalves)
	m.halves("decide_p95_ms", p95Halves)
	m.set("allocs_per_task", median(allocs), allocs...)
	m.set("alloc_kb_per_task", median(allocKB), allocKB...)
	m.set("served_frac", median(served), served...)
	return p
}

// quietMetrics takes each step's quiet time — its fastest over the given
// reps — and returns orders per second over the throughput steps and
// the p95, in ms, over the steps that decided; r says which are which.
func quietMetrics(r *runResult, steps [][]int64) (tasksPerS, decideP95Ms float64) {
	quiet := slices.Clone(steps[0])
	for _, rep := range steps[1:] {
		for i, ns := range rep {
			quiet[i] = min(quiet[i], ns)
		}
	}
	var ns int64
	for _, q := range quiet[r.tputFrom:] {
		ns += q
	}
	decideMs := make([]float64, len(r.decide))
	for i, s := range r.decide {
		decideMs[i] = float64(quiet[s]) / 1e6
	}
	return float64(r.orders) / (float64(ns) / 1e9), percentile(decideMs, 0.95)
}

// tracedPass measures the per-layer metrics, each from outside the
// layer: the workload's own run once more (with the handler middleware
// on the HTTP leg), the same day through a plain in-memory service and
// through that service on one processor, an undecorated and a decorated
// engine-level replay, and the probes.
func tracedPass(d *day, spec *benchSpec) *passResult {
	p := &passResult{metrics: newMetricSet(spec.PerLayer)}
	m := p.metrics
	fail := func(format string, args ...any) { p.errs = append(p.errs, fmt.Sprintf(format, args...)) }

	var hs *handlerStats
	if d.w.http {
		hs = &handlerStats{tr: newTracer()}
	}
	main, h := run(d, hs)
	p.absorb(main)
	if len(main.errs) > 0 {
		return p
	}
	// plain is the day as one library submitter sees it with nothing
	// durable: the workload's own run unless that crossed HTTP or the WAL.
	plain := main
	if d.w.http || d.w.durable {
		plain = runLibrary(d, false)
		p.absorb(plain)
	}
	prev := runtime.GOMAXPROCS(1)
	oneProc := runLibrary(d, false)
	runtime.GOMAXPROCS(prev)
	p.absorb(oneProc)

	bare, err := runEngine(d, nil)
	if err != nil {
		fail("%v", err)
		return p
	}
	tr := newTracer()
	traced, err := runEngine(d, tr)
	if err != nil {
		fail("%v", err)
		return p
	}
	if len(p.errs) > 0 {
		return p
	}
	if !d.w.http {
		p.books = &main.books
	}

	// The decorators must not change a decision, and the service must
	// settle what the engine settles — restored from its log or not, on
	// one processor or several. Only the HTTP run is exempt: its two
	// connections race.
	same := map[string]books{"service": plain.books, "one-processor service": oneProc.books, "decorated replay": traced.books}
	if !d.w.http {
		same["workload run"] = main.books
	}
	for name, b := range same {
		if !b.equal(bare.books) {
			fail("%s settled %+v, undecorated engine replay settled %+v", name, b, bare.books)
		}
	}

	p.spans = traced.spans
	if hs != nil {
		p.spans = linkHandlers(hs.tr.spans)
	}
	self := selfTimes(traced.spans)
	c := traced.counts
	orders := float64(len(d.pub))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	// sim, sources, online: from the decorated replay's spans and counts.
	var submitNs, simSelfNs, windowNs, windowSelfNs, candNs int64
	submits, windows := 0, 0
	for i, s := range traced.spans {
		switch s.Name {
		case "sim.submit":
			submits++
			submitNs += s.dur()
		case "source.candidates":
			candNs += s.dur()
			continue
		case "day":
			m.set("trace.unattributed_frac", ratio(float64(self[i]), float64(s.dur())))
			continue
		}
		simSelfNs += self[i]
		if s.Window > 0 {
			windows++
			windowNs += s.dur()
			windowSelfNs += self[i]
		}
	}
	m.set("sim.submit_calls", float64(submits))
	m.set("sim.submit_busy_ms", ms(submitNs))
	m.set("sim.self_ms", ms(simSelfNs))
	m.set("sim.window_closes", float64(windows))
	m.set("sim.window_busy_ms", ms(windowNs))
	m.set("sim.window_self_ms", ms(windowSelfNs))
	maxWindow, sumWindow := 0, 0
	for _, n := range c.windowOrders {
		maxWindow, sumWindow = max(maxWindow, n), sumWindow+n
	}
	m.set("sim.orders_per_window_mean", ratio(float64(sumWindow), float64(len(c.windowOrders))))
	m.set("sim.orders_per_window_max", float64(maxWindow))

	geoNs := probeGeo(d)
	distCalls := float64(c.distCalls.Load())
	distMs := distCalls * geoNs / 1e6
	if d.w.roadnet != nil {
		distMs = ms(c.roadBusyNs.Load())
	}
	m.set("source.candidates_calls", float64(c.candCalls))
	m.set("source.candidates_busy_ms", ms(candNs))
	m.set("source.candidates_self_ms", max(0, ms(candNs)-distMs))
	m.set("source.candidates_per_call_mean", ratio(float64(c.candReturned), float64(c.candCalls)))
	m.set("source.empty_frac", ratio(float64(c.candEmpty), float64(c.candCalls)))
	m.set("source.moved_calls", float64(c.movedCalls))
	m.set("source.moved_busy_ms", ms(c.movedNs))
	m.set("source.presence_calls", float64(c.presenceCalls))
	m.set("source.presence_busy_ms", ms(c.presenceNs))
	nearUs, visited := probeSpatial(d)
	m.set("spatial.near_us_mean", nearUs)
	m.set("spatial.visited_per_query_mean", visited)
	if d.w.window == 0 {
		m.set("online.choose_calls", float64(c.chooseCalls))
		m.set("online.choose_busy_ms", ms(c.chooseNs))
		m.set("online.reject_frac", ratio(float64(c.chooseRejects), float64(c.chooseCalls)))
	}

	if d.w.roadnet == nil {
		m.set("geo.dist_calls", distCalls)
		m.set("geo.dist_busy_ms_est", distMs)
	} else {
		buildStart := time.Now()
		fresh, err := buildRouter(*d.w.roadnet)
		if err != nil {
			fail("%v", err)
			return p
		}
		m.set("roadnet.build_ms", ms(int64(time.Since(buildStart))))
		nearestNs, coldNs := probeRoadnet(d, fresh)
		many, targets := float64(c.manyCalls.Load()), float64(c.manyTargets.Load())
		hits, misses, evictions := traced.router.CacheStats()
		m.set("roadnet.dist_calls", distCalls)
		m.set("roadnet.many_calls", many)
		m.set("roadnet.many_targets_mean", ratio(targets, many))
		m.set("roadnet.busy_ms", distMs)
		m.set("roadnet.cache_hits", float64(hits))
		m.set("roadnet.cache_misses", float64(misses))
		m.set("roadnet.cache_evictions", float64(evictions))
		m.set("roadnet.cache_hit_frac", ratio(float64(hits), float64(hits+misses)))
		m.set("roadnet.nearest_node_ns", nearestNs)
		m.set("roadnet.ptp_cold_ns", coldNs)
		m.set("roadnet.snap_ms_est", nearestNs*(many+targets+2*distCalls)/1e6)
	}

	if d.w.durable {
		appendUs, syncUs, err := probeWAL(main.wal.payloads)
		if err != nil {
			fail("wal probe: %v", err)
		}
		payloadBytes := 0
		for _, pl := range main.wal.payloads {
			payloadBytes += len(pl)
		}
		m.set("wal.records", float64(main.wal.records))
		m.set("wal.bytes_total", float64(main.walBytes))
		m.set("wal.bytes_per_record", ratio(float64(payloadBytes), float64(len(main.wal.payloads))))
		m.set("wal.segments", float64(main.wal.segments))
		m.set("wal.snapshots", float64(main.wal.snapshots))
		m.set("wal.snapshot_bytes_mean", ratio(float64(main.wal.snapshotBytes), float64(main.wal.snapshots)))
		m.set("wal.append_us_mean", appendUs)
		m.set("wal.append_busy_ms", appendUs*float64(main.wal.records)/1e3)
		m.set("wal.sync_us_mean", syncUs)
		m.set("wal.recover_ms", main.recoverMs)
		m.set("wal.snapshot_stall_ms_max", main.stallMs)
		m.set("wal.kb_per_task", ratio(float64(main.walBytes)/1024, float64(main.walOrders)))
		m.set("dispatch.journal_overhead_frac", main.wallS/plain.wallS-1)
		m.set("dispatch.restore_records", float64(main.restoreRecords))
		m.set("dispatch.restore_ms", main.restoreS*1e3)
	}

	m.set("dispatch.submit_us_mean", ratio(float64(plain.submitNs)/1e3, float64(plain.submits)))
	m.set("dispatch.close_ms", main.closeMs)
	m.set("dispatch.feed_events", float64(main.feedEvents))
	m.set("dispatch.feed_drops", float64(main.feedDrops))
	m.set("dispatch.overhead_frac", plain.wallS/bare.wallS-1)

	if h != nil {
		var handlerUs []float64
		for _, s := range p.spans {
			if s.Name == "fed.handler" {
				handlerUs = append(handlerUs, float64(s.dur())/1e3)
			}
		}
		// Closed-loop round trips start when they are sent, so they
		// price the wire; open-loop ones also hold generator lag.
		rttUs := mean(h.closedLoop.rttMs) * 1e3
		m.set("fed.handler_us_mean", mean(handlerUs))
		m.set("fed.handler_us_p99", percentile(handlerUs, 0.99))
		m.set("http.wire_us_mean", rttUs-mean(handlerUs))
		m.set("fed.overhead_us", (h.closedLoop.wallS/float64(h.orders)-plain.wallS/orders)*1e6)
		m.set("http.req_bytes_mean", float64(hs.reqBytes.Load())/orders)
		m.set("http.resp_bytes_mean", float64(h.open.respBytes+h.closedLoop.respBytes)/orders)
		m.set("http.gen_lag_ms_max", h.open.lagMsMax)
		p.genLagMsMax = h.open.lagMsMax
		m.set("http.status_429", float64(h.open.s429+h.closedLoop.s429))
		m.set("http.status_5xx", float64(h.open.s5xx+h.closedLoop.s5xx))
		sustained := 0.0
		for _, rate := range []float64{openRate, 2 * openRate, 3 * openRate} {
			ph := h.open
			if rate != openRate {
				if ph, err = openLoopAt(d, rate, len(h.open.rttMs)); err != nil {
					fail("%v", err)
				}
			}
			p99 := percentile(ph.rttMs, 0.99)
			m.set(fmt.Sprintf("http.p99_ms_at_%.0f", rate), p99)
			// No growing backlog: the last answer came when the schedule ended.
			if scheduled := float64(len(ph.rttMs)) / rate; p99 <= 5 && ph.wallS <= scheduled*1.02+0.01 {
				sustained = rate
			}
		}
		m.set("http.sustained_rate", sustained)
	}

	m.set("rt.gc_cycles", float64(main.mem.gcCycles))
	m.set("rt.gc_pause_ms", ms(int64(main.mem.gcPauseNs)))
	m.set("rt.heap_peak_mb", main.mem.heapSysMB)
	m.set("rt.tasks_per_s_1proc", orders/oneProc.wallS)
	m.set("rt.speedup_vs_1proc", oneProc.wallS/plain.wallS)
	m.set("trace.overhead_frac", traced.wallS/bare.wallS-1)
	decideMs := main.decideMs()
	m.set("decide.samples", float64(len(decideMs)))
	m.set("decide.p50_ms", percentile(decideMs, 0.50))
	if len(decideMs) >= 1000 { // ten samples beyond the percentile
		m.set("decide.p99_ms", percentile(decideMs, 0.99))
	}
	m.set("failed_frac", ratio(float64(p.failed), float64(p.attempted)))
	m.zeroRest()
	return p
}

// linkHandlers makes each fed.handler span the child of the round trip
// that carried the same order.
func linkHandlers(spans []span) []span {
	trip := map[int]int{}
	for _, s := range spans {
		if s.Name == "http.roundtrip" {
			trip[s.Order] = s.ID
		}
	}
	for i, s := range spans {
		if s.Name == "fed.handler" {
			if id, ok := trip[s.Order]; ok {
				spans[i].Parent = id
			}
		}
	}
	return spans
}
