package sim

import (
	"fmt"
	"time"

	"repro/internal/heap"
	"repro/internal/model"
)

// This file is the engine's event-driven core. Instead of replaying a
// pre-sorted task slice, every Run* entry point enqueues its work as
// events — task arrivals, driver joins/retirements, rider
// cancellations, driver frees, plus the internal batch-close and
// replan-round triggers — onto one priority queue and drains it through
// per-mode handlers. The queue's merge order is total and documented
// (key, then kind, then sequence number), which is what makes a run
// reproducible whatever generates its candidates: any two engines that
// drain the same events against the same candidate *sets* produce
// bit-identical results.

// The event kinds order same-key events. The ordering is part of the
// engine's semantics: at one timestamp, fleet changes (join/retire) are
// applied first, then cancellations and the driver frees they trigger,
// then batch closes (a batch spans [head, head+window) — an arrival at
// exactly head+window belongs to the next batch), then arrivals, and
// finally replan rounds (a round at t re-plans everything published
// up to and including t).
const (
	evJoin = iota
	evRetire
	evCancel
	evFree
	evBatchClose
	evArrival
	evReplan
)

// event is one queue entry, kept in the form a capture writes it. Key
// is the drain order (the event time for every time-keyed run;
// RunByValue keys arrivals by descending price instead), At the
// simulated time the event occurs, Idx the task or driver it concerns,
// and Seq a stable tiebreak within (Key, Kind).
type event = EventSnap

// eventBefore is the queue's merge order: (Key, Kind, Seq), ascending.
func eventBefore(a, b event) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Seq < b.Seq
}

// Clock paces the event drain. The engine calls Advance as simulated
// time moves forward between events; a simulation clock returns
// immediately, a demo clock can sleep to animate the day.
type Clock interface {
	Advance(from, to float64)
}

// InstantClock drains events as fast as the hardware allows — the
// default, and the only sensible clock for experiments.
type InstantClock struct{}

// Advance implements Clock.
func (InstantClock) Advance(from, to float64) {}

// ScaledClock sleeps (to−from)/Factor wall seconds per advance, so a
// day replays in day/Factor. Factor ≤ 0 is treated as 1 (real time).
type ScaledClock struct {
	Factor float64
}

// Advance implements Clock.
func (c ScaledClock) Advance(from, to float64) {
	f := c.Factor
	if f <= 0 {
		f = 1
	}
	time.Sleep(time.Duration((to - from) / f * float64(time.Second)))
}

// eventRun is the per-run state of one drain: the queue, the result
// under construction, the cancellation bookkeeping, and the mode hooks
// (instant dispatch, batched matching, replanning) that interpret
// arrivals and the internal trigger events.
type eventRun struct {
	e     *Engine
	tasks []model.Task
	d     Dispatcher
	res   Result

	q     []event // a min-heap under eventBefore
	seq   int     // next sequence number for dynamically pushed events
	cands []Candidate
	slots []int // the unused rest of the chunk first path slots come from

	started bool
	now     float64

	cancelled []bool
	inflight  map[int]InflightSnap // task index -> snapshot, while revocable
	revert    map[int]InflightSnap // driver -> revert to apply at its evFree

	onArrival    func(ev event)
	onBatchClose func(ev event)
	onReplan     func(ev event)
	// onDecided reports each dispatch decision a mode commits *after*
	// the task's arrival event (a batch close deciding the window's
	// orders). Instant dispatch decides inside the arrival itself and
	// leaves it nil; the streaming API uses it to surface deferred
	// decisions.
	onDecided func(dec TaskDecision)
	// cancelPending removes a still-undecided task from the mode's
	// pending set (an open batch, the replan pool). It reports whether
	// the task was pending; instant dispatch has no pending tasks.
	cancelPending func(ti int) bool
}

// openRun validates the scenario events, resets the engine with
// join-announced drivers absent, and queues the churn events, for every
// day and every stream. The caller queues arrivals (choosing the key)
// and mode triggers, then drains or steps.
func (e *Engine) openRun(tasks []model.Task, events []model.MarketEvent, timeKeyed bool) (*eventRun, error) {
	if err := model.ValidateEvents(events, e.Drivers, tasks); err != nil {
		return nil, fmt.Errorf("sim: invalid scenario: %w", err)
	}
	if !timeKeyed && len(events) > 0 {
		return nil, fmt.Errorf("sim: churn events require a time-keyed run (not by-value)")
	}
	var absent []int
	hasCancel := false
	for _, ev := range events {
		switch ev.Kind {
		case model.EventJoin:
			absent = append(absent, ev.Driver)
		case model.EventCancel:
			hasCancel = true
		}
	}
	e.resetAbsent(absent, timeKeyed)
	r := &eventRun{
		e:     e,
		tasks: tasks,
		seq:   len(tasks) + len(events),
		res:   newResult(e),
	}
	for i, ev := range events {
		kind, idx := evJoin, ev.Driver
		switch ev.Kind {
		case model.EventRetire:
			kind = evRetire
		case model.EventCancel:
			kind, idx = evCancel, ev.Task
		}
		r.add(event{Key: ev.At, Kind: kind, Seq: i, At: ev.At, Idx: idx})
	}
	if hasCancel {
		r.watchCancels()
	}
	return r, nil
}

// mustOpen is openRun for the Run* days, whose scenarios are static test
// and experiment inputs: an invalid one panics.
func (e *Engine) mustOpen(tasks []model.Task, events []model.MarketEvent, timeKeyed bool) *eventRun {
	r, err := e.openRun(tasks, events, timeKeyed)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// watchCancels allocates the revocation bookkeeping of a run that can
// see a cancellation: every stream, and a day with a cancel event. Once
// it exists, assignTask keeps an in-flight copy of every assignment.
func (r *eventRun) watchCancels() {
	r.cancelled = make([]bool, len(r.tasks))
	r.inflight = make(map[int]InflightSnap)
	r.revert = make(map[int]InflightSnap)
}

// day queues every task's arrival, drain-ordered by key, drains the
// run and settles its books: the whole of a Run* day once its mode
// hooks and any other events are in place. The merge order is total,
// so the order events were queued in does not matter.
func (r *eventRun) day(key func(model.Task) float64) Result {
	for i, t := range r.tasks {
		r.add(event{Key: key(t), Kind: evArrival, Seq: i, At: t.Publish, Idx: i})
	}
	r.drain()
	r.e.settle(&r.res)
	return r.res
}

// publishKey drains arrivals in publish order, the key of every
// time-keyed run.
func publishKey(t model.Task) float64 { return t.Publish }

// add enqueues a statically built event (heap property restored by
// init).
func (r *eventRun) add(ev event) { r.q = append(r.q, ev) }

// push stamps ev with the next sequence number and enqueues it,
// preserving the heap; it returns the stamp. It is the only place a
// dynamic event gets one.
func (r *eventRun) push(ev event) int {
	ev.Seq = r.seq
	r.seq++
	heap.Push(&r.q, ev, eventBefore)
	return ev.Seq
}

// init restores the heap invariant over the statically built queue.
// Call once, after the last add and before the first step.
func (r *eventRun) init() { heap.Init(r.q, eventBefore) }

// step pops and handles the next event in merge order, reporting
// whether one was processed. The batch drain and the streaming API
// (see stream.go) are both loops over this single-event core.
func (r *eventRun) step() bool {
	if len(r.q) == 0 {
		return false
	}
	r.handle(heap.Pop(&r.q, eventBefore))
	return true
}

// handle advances the simulated clock to the event and dispatches it to
// its handler.
func (r *eventRun) handle(ev event) {
	if r.e.timeKeyed {
		r.advance(ev.At)
	}
	switch ev.Kind {
	case evJoin:
		r.handleJoin(ev)
	case evRetire:
		r.handleRetire(ev)
	case evCancel:
		r.handleCancel(ev)
	case evFree:
		r.handleFree(ev)
	case evArrival:
		r.onArrival(ev)
	case evBatchClose:
		r.onBatchClose(ev)
	case evReplan:
		r.onReplan(ev)
	}
}

// advance moves the run's clock forward to t, letting the Clock pace
// the gap. The first call only starts the clock; moving backwards is a
// no-op.
func (r *eventRun) advance(t float64) {
	if !r.started {
		r.now, r.started = t, true
		return
	}
	if t > r.now {
		if r.e.Clock != nil {
			r.e.Clock.Advance(r.now, t)
		}
		r.now = t
	}
}

// future reports whether an event at t lies ahead of the run's clock,
// so a stream queues it rather than handling it now.
func (r *eventRun) future(t float64) bool {
	return t > r.now || !r.started && t > 0
}

// drain processes every event in merge order: the batch entry points
// are thin adapters that enqueue their whole day and drain it through
// the same stepping core the streaming API advances incrementally.
func (r *eventRun) drain() {
	r.init()
	for r.step() {
	}
}

// handleJoin makes the driver visible to dispatch from the join instant
// on. Joining after the nominal shift start delays the earliest
// departure accordingly.
func (r *eventRun) handleJoin(ev event) {
	i := ev.Idx
	if r.e.present[i] {
		return
	}
	r.e.present[i] = true
	if st := &r.e.states[i]; st.FreeAt < ev.At {
		st.FreeAt = ev.At
	}
	r.e.source.Presence(i, true)
}

// handleRetire removes the driver from the market: no new tasks, though
// an in-flight assignment still completes.
func (r *eventRun) handleRetire(ev event) {
	i := ev.Idx
	if !r.e.present[i] {
		return
	}
	r.e.present[i] = false
	r.e.source.Presence(i, false)
}

// handleCancel processes a rider cancellation. Three cases, checked in
// order: the task is still pending in the mode's undecided pool (open
// batch, replan queue) — drop it there; the task is assigned and the
// driver has not reached the pickup — revoke, freeing the driver via an
// explicit driver-free event at the cancellation instant; otherwise
// (already rejected, expired, or picked up) the cancellation is moot.
//
// Revocation is limited to the driver's most recent assignment: the
// engine commits task chains eagerly (a locked driver may already have
// a follow-up task stacked on this one, its feasibility derived from
// this trip's dropoff), so cancelling *under* a committed chain would
// invalidate the commitments above it. Such cancellations are treated
// as too late and the ride proceeds — the simplification is noted in
// DESIGN.md.
func (r *eventRun) handleCancel(ev event) {
	ti := ev.Idx
	if r.isCancelled(ti) {
		return
	}
	if r.cancelPending != nil && r.cancelPending(ti) {
		r.cancelled[ti] = true
		r.res.Cancelled++
		return
	}
	drv, assigned := r.res.Assignment[ti]
	if !assigned {
		return
	}
	info, ok := r.inflight[ti]
	if !ok || info.Arrival <= ev.At {
		return // picked up already (or superseded): too late to cancel
	}
	if path := r.res.DriverPaths[drv]; len(path) == 0 || path[len(path)-1] != ti {
		return // a later task is chained on this trip: committed
	}
	r.cancelled[ti] = true
	r.res.Cancelled++
	r.revert[drv] = info
	r.push(event{Key: ev.At, Kind: evFree, At: ev.At, Idx: drv})
}

// handleFree applies a pending revocation: the driver's pre-assignment
// state is restored, except that the time she spent driving toward the
// cancelled pickup is gone — she frees at the cancellation instant (or
// at her previous lock release, whichever is later) at her previous
// location. The aborted deadhead's fuel is not charged; the engine's
// cost model only meters committed trips.
func (r *eventRun) handleFree(ev event) {
	info, ok := r.revert[ev.Idx]
	if !ok {
		return
	}
	delete(r.revert, ev.Idx)
	delete(r.inflight, info.Task)
	st := &r.e.states[ev.Idx]
	*st = info.Prev
	if st.FreeAt < ev.At {
		st.FreeAt = ev.At
	}
	r.e.source.Moved(ev.Idx)

	r.res.Served--
	delete(r.res.Assignment, info.Task)
	path := r.res.DriverPaths[ev.Idx]
	r.res.DriverPaths[ev.Idx] = path[:len(path)-1]
}

// isCancelled reports whether the task was cancelled earlier in the
// drain. Safe to call on runs with no cancel events.
func (r *eventRun) isCancelled(ti int) bool {
	return r.cancelled != nil && r.cancelled[ti]
}

// assignTask commits the task to the candidate driver and records the
// revocation snapshot while cancellations are possible.
func (r *eventRun) assignTask(ti int, c Candidate, task model.Task) {
	if r.inflight != nil {
		r.inflight[ti] = InflightSnap{Task: ti, Driver: c.Driver, Prev: r.e.states[c.Driver], Arrival: c.Arrival}
	}
	r.e.assign(c, task)
	r.res.Served++
	r.res.Assignment[ti] = c.Driver
	path := r.res.DriverPaths[c.Driver]
	if cap(path) == 0 {
		path = r.pathSlot()
	}
	r.res.DriverPaths[c.Driver] = append(path, ti)
}

// pathChunk is how many first path slots one allocation holds.
const pathChunk = 256

// pathSlot hands out a driver's first path slot: one int of a per-run
// chunk, capped at 1. Her second task then moves the path out by the
// same append, to the same size, as a path begun on nil would take, and
// no two drivers' paths ever share a slot.
func (r *eventRun) pathSlot() []int {
	if len(r.slots) == 0 {
		r.slots = make([]int, pathChunk)
	}
	s := r.slots[:0:1]
	r.slots = r.slots[1:]
	return s
}

// instantArrival is the instant-dispatch arrival handler: candidates at
// the arrival instant, one dispatcher choice, commit or reject. When the
// dispatcher declares what it ranks by and the source can bound that
// rank (both discovered here, neither configured), the choice is made
// over the contenders only; see Ranked.
func (r *eventRun) instantArrival(ev event) {
	task := r.tasks[ev.Idx]
	ranked, _ := r.d.(Ranked)
	bounded, _ := r.e.source.(boundedSource)
	if ranked != nil && bounded != nil {
		r.cands = bounded.Contenders(task, ev.At, ranked.RankedBy(), r.cands[:0])
	} else {
		r.cands = r.e.source.Candidates(task, ev.At, r.cands[:0])
	}
	choice := -1
	if len(r.cands) > 0 {
		choice = r.d.Choose(task, r.cands, r.e.rng)
		if choice >= len(r.cands) {
			panic(fmt.Sprintf("sim: dispatcher %s chose %d of %d candidates", r.d.Name(), choice, len(r.cands)))
		}
	}
	if choice < 0 {
		r.res.Rejected++
		return
	}
	r.assignTask(ev.Idx, r.cands[choice], task)
}

// newResult allocates a Result sized to the engine's fleet.
func newResult(e *Engine) Result {
	return Result{
		PerDriverRevenue: make([]float64, len(e.Drivers)),
		PerDriverProfit:  make([]float64, len(e.Drivers)),
		PerDriverTasks:   make([]int, len(e.Drivers)),
		DriverPaths:      make([][]int, len(e.Drivers)),
		Assignment:       make(map[int]int),
	}
}
