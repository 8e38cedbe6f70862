package sim

import (
	"container/heap"
	"fmt"
	"time"

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

// eventKind orders same-key events. The ordering is part of the
// engine's semantics: at one timestamp, fleet changes (join/retire) are
// applied first, then cancellations and the driver frees they trigger,
// then batch closes (a batch spans [head, head+window) — an arrival at
// exactly head+window belongs to the next batch), then arrivals, and
// finally replan rounds (a round at t re-plans everything published
// up to and including t).
type eventKind int

const (
	evJoin eventKind = iota
	evRetire
	evCancel
	evFree
	evBatchClose
	evArrival
	evReplan
)

// event is one queue entry. key is the drain order (the event time for
// every time-keyed run; RunByValue keys arrivals by descending price
// instead), at is the simulated time the event occurs, idx the task or
// driver it concerns, and seq a stable tiebreak within (key, kind).
type event struct {
	key  float64
	kind eventKind
	seq  int
	at   float64
	idx  int
}

// eventQueue is a min-heap over (key, kind, seq).
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.key != b.key {
		return a.key < b.key
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
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

// inflightInfo snapshots a driver's state right before an assignment so
// a later rider cancellation can revoke it.
type inflightInfo struct {
	driver  int
	prev    driverState
	arrival float64
	task    int
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

	q     eventQueue
	seq   int // next sequence number for dynamically pushed events
	cands []Candidate

	started bool
	now     float64

	cancelled []bool
	inflight  map[int]inflightInfo // task index -> snapshot, while revocable
	revert    map[int]inflightInfo // driver -> revert to apply at its evFree

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

// newEventRun validates the scenario events, resets the engine with
// join-announced drivers absent, and enqueues the churn events. The
// caller enqueues arrivals (choosing the key) and mode triggers, then
// calls drain.
func (e *Engine) newEventRun(tasks []model.Task, events []model.MarketEvent, timeKeyed bool) *eventRun {
	if err := model.ValidateEvents(events, e.Drivers, tasks); err != nil {
		panic(fmt.Sprintf("sim: invalid scenario: %v", err))
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
	if !timeKeyed && len(events) > 0 {
		panic("sim: churn events require a time-keyed run (not by-value)")
	}
	for i, ev := range events {
		var kind eventKind
		var idx int
		switch ev.Kind {
		case model.EventJoin:
			kind, idx = evJoin, ev.Driver
		case model.EventRetire:
			kind, idx = evRetire, ev.Driver
		case model.EventCancel:
			kind, idx = evCancel, ev.Task
		}
		r.q = append(r.q, event{key: ev.At, kind: kind, seq: i, at: ev.At, idx: idx})
	}
	if hasCancel {
		r.cancelled = make([]bool, len(tasks))
		r.inflight = make(map[int]inflightInfo)
		r.revert = make(map[int]inflightInfo)
	}
	return r
}

// add enqueues a statically built event (heap property restored by
// drain's heap.Init).
func (r *eventRun) add(ev event) { r.q = append(r.q, ev) }

// push enqueues an event mid-drain, preserving the heap.
func (r *eventRun) push(ev event) {
	ev.seq = r.seq
	r.seq++
	heap.Push(&r.q, ev)
}

// init restores the heap invariant over the statically built queue.
// Call once, after the last add and before the first step.
func (r *eventRun) init() { heap.Init(&r.q) }

// step pops and handles the next event in merge order, reporting
// whether one was processed. The batch drain and the streaming API
// (see stream.go) are both loops over this single-event core.
func (r *eventRun) step() bool {
	if r.q.Len() == 0 {
		return false
	}
	r.handle(heap.Pop(&r.q).(event))
	return true
}

// handle advances the simulated clock to the event and dispatches it to
// its handler.
func (r *eventRun) handle(ev event) {
	if r.e.timeKeyed {
		if r.started && ev.at > r.now && r.e.Clock != nil {
			r.e.Clock.Advance(r.now, ev.at)
		}
		if ev.at > r.now || !r.started {
			r.now = ev.at
		}
		r.started = true
	}
	switch ev.kind {
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
	i := ev.idx
	if r.e.present[i] {
		return
	}
	r.e.present[i] = true
	if st := &r.e.states[i]; st.freeAt < ev.at {
		st.freeAt = ev.at
	}
	r.e.source.Presence(i, true)
}

// handleRetire removes the driver from the market: no new tasks, though
// an in-flight assignment still completes.
func (r *eventRun) handleRetire(ev event) {
	i := ev.idx
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
	ti := ev.idx
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
	if !ok || info.arrival <= ev.at {
		return // picked up already (or superseded): too late to cancel
	}
	if path := r.res.DriverPaths[drv]; len(path) == 0 || path[len(path)-1] != ti {
		return // a later task is chained on this trip: committed
	}
	r.cancelled[ti] = true
	r.res.Cancelled++
	r.revert[drv] = info
	r.push(event{key: ev.at, kind: evFree, at: ev.at, idx: drv})
}

// handleFree applies a pending revocation: the driver's pre-assignment
// state is restored, except that the time she spent driving toward the
// cancelled pickup is gone — she frees at the cancellation instant (or
// at her previous lock release, whichever is later) at her previous
// location. The aborted deadhead's fuel is not charged; the engine's
// cost model only meters committed trips.
func (r *eventRun) handleFree(ev event) {
	info, ok := r.revert[ev.idx]
	if !ok {
		return
	}
	delete(r.revert, ev.idx)
	delete(r.inflight, info.task)
	st := &r.e.states[ev.idx]
	*st = info.prev
	if st.freeAt < ev.at {
		st.freeAt = ev.at
	}
	r.e.source.Moved(ev.idx)

	r.res.Served--
	delete(r.res.Assignment, info.task)
	path := r.res.DriverPaths[ev.idx]
	r.res.DriverPaths[ev.idx] = path[:len(path)-1]
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
		r.inflight[ti] = inflightInfo{driver: c.Driver, prev: r.e.states[c.Driver], arrival: c.Arrival, task: ti}
	}
	r.e.assign(c, task)
	r.res.Served++
	r.res.Assignment[ti] = c.Driver
	r.res.DriverPaths[c.Driver] = append(r.res.DriverPaths[c.Driver], ti)
}

// instantArrival is the instant-dispatch arrival handler: candidates at
// the arrival instant, one dispatcher choice, commit or reject. When the
// dispatcher declares what it ranks by and the source can bound that
// rank (both discovered here, neither configured), the choice is made
// over the contenders only; see Ranked.
func (r *eventRun) instantArrival(ev event) {
	task := r.tasks[ev.idx]
	ranked, _ := r.d.(Ranked)
	bounded, _ := r.e.source.(boundedSource)
	if ranked != nil && bounded != nil {
		r.cands = bounded.Contenders(task, ev.at, ranked.RankedBy(), r.cands[:0])
	} else {
		r.cands = r.e.source.Candidates(task, ev.at, r.cands[:0])
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
	r.assignTask(ev.idx, r.cands[choice], task)
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
