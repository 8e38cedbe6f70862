package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/dispatch"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

// This file replays a workload's day at engine level — the market,
// engine, candidate source and stream assembled exactly as dispatch.New
// assembles them — so that timing decorators written here can sit on
// every boundary between layers without the program under test being
// changed. With tr == nil nothing is decorated: that replay is the
// untraced baseline of trace.overhead_frac and dispatch.overhead_frac,
// and the oracle the decorated books are compared to.

// layerCounts are the counts and busy times the decorators gather at
// the boundaries. Distance calls arrive from shard goroutines, hence
// the atomics; their busy time is summed over goroutines and can
// exceed the wall time of the query that fanned out.
type layerCounts struct {
	candCalls, candReturned, candEmpty int
	movedCalls, presenceCalls          int
	movedNs, presenceNs                int64
	chooseCalls, chooseRejects         int
	chooseNs                           int64

	distCalls, manyCalls, manyTargets atomic.Int64
	roadBusyNs                        atomic.Int64

	windowOrders []int
}

type tracedSource struct {
	sim.CandidateSource
	tr *tracer
	c  *layerCounts
}

func (s *tracedSource) Candidates(task model.Task, now float64, buf []sim.Candidate) []sim.Candidate {
	id := s.tr.begin("source.candidates", task.ID)
	before := len(buf)
	buf = s.CandidateSource.Candidates(task, now, buf)
	s.tr.end(id)
	s.c.candCalls++
	s.c.candReturned += len(buf) - before
	if len(buf) == before {
		s.c.candEmpty++
	}
	return buf
}

func (s *tracedSource) Moved(i int) {
	start := time.Now()
	s.CandidateSource.Moved(i)
	ns := int64(time.Since(start))
	s.c.movedCalls++
	s.c.movedNs += ns
	s.tr.leaf(ns)
}

func (s *tracedSource) Presence(i int, present bool) {
	start := time.Now()
	s.CandidateSource.Presence(i, present)
	ns := int64(time.Since(start))
	s.c.presenceCalls++
	s.c.presenceNs += ns
	s.tr.leaf(ns)
}

type tracedDispatcher struct {
	sim.Dispatcher
	tr *tracer
	c  *layerCounts
}

func (d *tracedDispatcher) Choose(task model.Task, cands []sim.Candidate, rng *rand.Rand) int {
	start := time.Now()
	pick := d.Dispatcher.Choose(task, cands, rng)
	ns := int64(time.Since(start))
	d.c.chooseCalls++
	d.c.chooseNs += ns
	if pick < 0 {
		d.c.chooseRejects++
	}
	d.tr.leaf(ns)
	return pick
}

// tracedBatcher times the router's one-to-many queries.
type tracedBatcher struct {
	model.DistanceBatcher
	c *layerCounts
}

func (b *tracedBatcher) DistManyInto(origin geo.Point, targets []geo.Point, out []float64) {
	start := time.Now()
	b.DistanceBatcher.DistManyInto(origin, targets, out)
	b.c.roadBusyNs.Add(int64(time.Since(start)))
	b.c.manyCalls.Add(1)
	b.c.manyTargets.Add(int64(len(targets)))
}

func (b *tracedBatcher) DistManyToInto(sources []geo.Point, dest geo.Point, out []float64) {
	start := time.Now()
	b.DistanceBatcher.DistManyToInto(sources, dest, out)
	b.c.roadBusyNs.Add(int64(time.Since(start)))
	b.c.manyCalls.Add(1)
	b.c.manyTargets.Add(int64(len(sources)))
}

// buildRouter mirrors dispatch.RoadNetwork's normalisation and build.
func buildRouter(rn dispatch.RoadNetwork) (*roadnet.Router, error) {
	gcfg := roadnet.DefaultGridConfig()
	if rn.Rows != 0 {
		gcfg.Rows = rn.Rows
	}
	if rn.Cols != 0 {
		gcfg.Cols = rn.Cols
	}
	if rn.Seed != 0 {
		gcfg.Seed = rn.Seed
	}
	g, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		return nil, err
	}
	r := roadnet.NewRouterAlgo(g, gcfg.Box, 0, roadnet.AlgoCH)
	if rn.CacheEntries != 0 {
		r.SetCacheBound(rn.CacheEntries)
	}
	return r, nil
}

type engineRun struct {
	wallS  float64
	books  books
	counts *layerCounts
	router *roadnet.Router
	spans  []span
}

// runEngine replays the day through a sim.Stream. The operations are
// the ones runLibrary sends, in the same order, minus the halt.
func runEngine(d *day, tr *tracer) (*engineRun, error) {
	run := &engineRun{counts: &layerCounts{}}
	c := run.counts
	mkt := model.DefaultMarket()
	if d.w.roadnet != nil {
		router, err := buildRouter(*d.w.roadnet)
		if err != nil {
			return nil, err
		}
		run.router = router
		mkt.Dist, mkt.Batch = router.Dist, router
	}
	if tr != nil {
		inner := mkt.Dist
		if run.router != nil {
			// A network distance is two snaps and a lookup, microseconds:
			// worth timing. A crow-fly one is tens of nanoseconds, so it is
			// only counted and costed later at a probed mean.
			mkt.Dist = func(a, b geo.Point) float64 {
				start := time.Now()
				km := inner(a, b)
				c.roadBusyNs.Add(int64(time.Since(start)))
				c.distCalls.Add(1)
				return km
			}
			mkt.Batch = &tracedBatcher{mkt.Batch, c}
		} else {
			mkt.Dist = func(a, b geo.Point) float64 {
				c.distCalls.Add(1)
				return inner(a, b)
			}
		}
	}

	eng, err := sim.New(mkt, d.fleet, 1)
	if err != nil {
		return nil, err
	}
	var src sim.CandidateSource = sim.NewShardedSource(shards)
	if tr != nil {
		src = &tracedSource{src, tr, c}
	}
	eng.SetCandidateSource(src)
	eng.MatchWorkers = 1
	var joins []model.MarketEvent
	for i := range d.fleet {
		if at := d.joinAt[i]; at > 0 {
			joins = append(joins, model.MarketEvent{At: at, Kind: model.EventJoin, Driver: i})
		}
	}
	var st *sim.Stream
	if d.w.window > 0 {
		st, err = eng.NewBatchedStream(d.w.window, sim.BatchHungarian, joins)
	} else {
		var pol sim.Dispatcher = online.MaxMargin{}
		if tr != nil {
			pol = &tracedDispatcher{pol, tr, c}
		}
		st, err = eng.NewStream(pol, joins)
	}
	if err != nil {
		return nil, err
	}
	closed := 0 // orders in the window the current call closed
	st.SetBatchCloseHandler(func(bs sim.BatchStats) {
		closed = bs.Submitted
		c.windowOrders = append(c.windowOrders, bs.Submitted)
	})
	// call runs one stream call under a span and notes the window it
	// closed, if any.
	call := func(name string, order int, f func() error) error {
		if tr == nil {
			return f()
		}
		closed = 0
		id := tr.begin(name, order)
		err := f()
		tr.end(id)
		tr.spans[id].Window = closed
		return err
	}

	var res sim.Result
	start := time.Now()
	err = call("day", -1, func() error {
		for _, o := range d.ops {
			var err error
			switch o.kind {
			case opSubmit:
				err = call("sim.submit", o.idx, func() error { _, err := st.SubmitTask(d.tasks[o.idx]); return err })
			case opCancel:
				err = call("sim.cancel", o.idx, func() error { _, _, err := st.CancelTask(o.idx, o.at); return err })
			case opRetire:
				err = call("sim.retire", -1, func() error { return st.RetireDriver(o.idx, o.at) })
			}
			if err != nil {
				return err
			}
		}
		return call("sim.finish", -1, func() (err error) { res, err = st.Finish(); return err })
	})
	run.wallS = time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("engine replay: %w", err)
	}
	run.books = books{Tasks: len(d.tasks), Served: res.Served, Rejected: res.Rejected,
		Cancelled: res.Cancelled, Revenue: res.Revenue, Profit: res.TotalProfit}
	if tr != nil {
		tr.spans[0].Window = 0 // the day closes no window of its own
		run.spans = tr.spans
	}
	return run, nil
}
