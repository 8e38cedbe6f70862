package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/offline"
	"repro/internal/taskmap"
)

// This file implements rolling-horizon re-optimization: the strongest
// online strategy in the framework and, with batched matching, the
// second half of the paper's "non-heuristic online algorithms" future
// work. At every task arrival (and on a periodic flush grid of `period`
// seconds) the platform rebuilds a task map over all *pending* tasks
// (published, not yet assigned, not cancelled, pickup still reachable)
// with each present driver's current position and availability as her
// virtual source, runs the offline greedy (Algorithm 1) on the
// snapshot, and commits the first leg of each selected task list. Later
// legs stay uncommitted and are re-planned as new demand arrives.
//
// Over the event loop, replan rounds are explicit events: one per
// distinct arrival time plus the periodic flush grid. A round at time t
// sorts after every arrival at t, so it always sees the full demand
// published up to and including t.

// RunReplanScenario simulates the day under rolling-horizon
// re-optimization. period controls the flush grid that re-examines
// deferred tasks after arrivals go quiet; re-planning itself is triggered
// by every arrival, so accepted customers get an answer with no added
// latency. Dynamic market events (nil for none): retired drivers drop out
// of every subsequent snapshot, mid-day joiners enter it from their join
// time, and cancelled pending tasks leave the pool (an
// assigned-but-not-picked-up cancellation frees the driver for the next
// round, with the same revocation semantics as RunScenario).
func (e *Engine) RunReplanScenario(tasks []model.Task, events []model.MarketEvent, period float64) Result {
	// A NaN period would schedule no flush at all and an infinite one
	// would never leave the flush-grid loop below; the CLI validates the
	// flag, so either here is a programming error like a negative one.
	if !(period > 0) || math.IsInf(period, 1) {
		panic(fmt.Sprintf("sim: replan period must be positive and finite, got %g", period))
	}
	r := e.newEventRun(tasks, events, true)
	if len(tasks) == 0 && len(events) == 0 {
		return r.res
	}

	assigned := make([]bool, len(tasks))
	expired := make([]bool, len(tasks))
	var published []int // task indices in arrival order

	r.onArrival = func(ev event) { published = append(published, ev.idx) }
	r.cancelPending = func(ti int) bool {
		// Published (cancellations are strictly after publish) and not
		// yet decided: drop it from the pool. Decided tasks fall through
		// to the generic assigned/too-late handling.
		return !assigned[ti] && !expired[ti]
	}
	r.onReplan = func(ev event) {
		now := ev.at
		// Pending demand: published, unassigned, uncancelled, pickup
		// deadline ahead.
		var pending []int
		for _, ti := range published {
			if assigned[ti] || expired[ti] || r.isCancelled(ti) {
				continue
			}
			if r.tasks[ti].StartBy < now {
				expired[ti] = true
				r.res.Rejected++
				continue
			}
			pending = append(pending, ti)
		}
		if len(pending) == 0 {
			return
		}

		// Virtual market snapshot: each present driver planning from her
		// current location and availability.
		var vdrivers []model.Driver
		realOf := make([]int, 0, len(e.Drivers))
		for i, d := range e.Drivers {
			if !e.present[i] {
				continue // not yet joined, or retired
			}
			st := &e.states[i]
			availAt := st.freeAt
			if availAt < now {
				availAt = now
			}
			if availAt >= d.End {
				continue // shift effectively over
			}
			vdrivers = append(vdrivers, model.Driver{
				ID:       len(vdrivers),
				Source:   st.loc,
				Dest:     d.Dest,
				Start:    availAt,
				End:      d.End,
				SpeedKmh: d.SpeedKmh,
			})
			realOf = append(realOf, i)
		}
		if len(vdrivers) == 0 {
			return
		}
		vtasks := make([]model.Task, len(pending))
		for k, ti := range pending {
			vtasks[k] = r.tasks[ti]
			vtasks[k].ID = k
		}

		g, err := taskmap.New(e.Market, vdrivers, vtasks)
		if err != nil {
			// Inputs were validated at engine construction; a snapshot
			// failure is a programming error.
			panic(fmt.Sprintf("sim: replan snapshot invalid: %v", err))
		}
		plan := offline.Greedy(g)

		// Commit the first leg of every selected task list; later legs
		// stay open for re-planning. Deferring even first legs keeps
		// more options open in principle, but with short pickup notice
		// every deferred round costs reachable candidates, which
		// dominates in practice.
		for _, path := range plan.Paths {
			if path.Len() == 0 {
				continue
			}
			first := path.Tasks[0]
			ti := pending[first]
			task := r.tasks[ti]
			drv := realOf[path.Driver]
			st := &e.states[drv]
			depart := st.freeAt
			if depart < now {
				depart = now
			}
			arrival := depart + e.Market.DriverTravelTime(e.Drivers[drv], st.loc, task.Source)
			if arrival > task.StartBy {
				continue // the snapshot aged out; re-plan next round
			}
			r.assignTask(ti, Candidate{Driver: drv, Arrival: arrival}, task)
			assigned[ti] = true
		}
	}

	// Arrivals, then one replan round per distinct arrival time, then
	// the periodic flush grid out to the horizon.
	start, horizon := 0.0, 0.0
	for i := range tasks {
		r.add(event{key: tasks[i].Publish, kind: evArrival, seq: i, at: tasks[i].Publish, idx: i})
		if i == 0 || tasks[i].Publish < start {
			start = tasks[i].Publish
		}
		if i == 0 || tasks[i].StartBy > horizon {
			horizon = tasks[i].StartBy
		}
	}
	if len(tasks) > 0 {
		roundTimes := make([]float64, 0, len(tasks))
		for i := range tasks {
			roundTimes = append(roundTimes, tasks[i].Publish)
		}
		sort.Float64s(roundTimes)
		seq := 0
		for k, at := range roundTimes {
			if k > 0 && at == roundTimes[k-1] {
				continue
			}
			r.add(event{key: at, kind: evReplan, seq: seq, at: at})
			seq++
		}
		for now := start + period; now <= horizon+period; now += period {
			r.add(event{key: now, kind: evReplan, seq: seq, at: now})
			seq++
		}
	}

	r.drain()

	// Cancellation revocations can strand a task as unassigned again
	// only by marking it cancelled, so the final sweep stays simple:
	// everything never decided is rejected.
	for ti := range tasks {
		if !assigned[ti] && !expired[ti] && !r.isCancelled(ti) {
			r.res.Rejected++
		}
	}
	e.settle(&r.res)
	return r.res
}
