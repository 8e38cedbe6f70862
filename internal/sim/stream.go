package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/heap"
	"repro/internal/model"
)

// ErrFinished reports use of a Stream after Finish: the run's accounts
// were settled and its bookkeeping released, so no further mutation or
// snapshot is meaningful. Callers (the dispatch service) surface it as
// their own typed error instead of relying on internal state flags.
var ErrFinished = errors.New("sim: stream finished")

// This file is the engine's open-loop entry point: where the batch Run*
// adapters enqueue a complete day and drain it, a Stream keeps one
// instant-dispatch run suspended between events so callers can feed the
// market incrementally — submit a task and get the dispatch decision
// back, announce or retire drivers, revoke tasks — while the run stays
// bit-identical to what RunScenario would have produced on the same
// event sequence. The public dispatch package wraps a Stream behind a
// stable API; everything here speaks the engine's internal types.
//
// The equivalence contract is exact: feeding a trace's tasks and events
// through a Stream in the canonical merge order (ascending time, fleet
// changes before cancellations before arrivals at the same instant,
// original order within a kind) produces the same Result, bit for bit,
// as RunScenario on the whole trace — same heap, same handlers, same
// RNG consumption. The streaming differential tests in this package and
// in dispatch/ hold that line across candidate sources.

// TaskDecision is the platform's answer to one submitted task. Instant
// streams return it fully decided from SubmitTask; batched streams
// return it Pending and deliver the decided form through the decision
// handler when the task's window closes.
type TaskDecision struct {
	// Task is the engine index the task was registered under (its
	// position in submission order).
	Task int
	// Assigned reports whether a driver took the task; Driver is her
	// engine index when so, -1 otherwise.
	Assigned bool
	Driver   int
	// PickupAt is the assigned driver's estimated arrival at the
	// pickup; meaningful only when Assigned.
	PickupAt float64
	// At is the effective decision time: the task's publish time, or
	// the stream's current time if the submission arrived late. For a
	// pending decision it is the time the order joined its window.
	At float64
	// Pending reports that the stream dispatches in batched mode and
	// the decision is deferred to the close of the window the task
	// joined; DecideAt is that window's scheduled close time.
	Pending  bool
	DecideAt float64
}

// Stream is a suspended open-loop run — instant dispatch (NewStream) or
// windowed batched dispatch (NewBatchedStream). The engine must not be
// used for batch Run* calls while the stream is open. A Stream is not
// safe for concurrent use — callers serialize access (the dispatch
// package's Service does).
type Stream struct {
	e      *Engine
	r      *eventRun
	b      *batcher // non-nil when the stream dispatches in batched mode
	closed bool

	// inflight and revert are CaptureState's: the two maps' values,
	// collected and sorted in place at every capture.
	inflight, revert []InflightSnap
}

// openStream refuses pre-scheduled cancellations — their tasks do not
// exist yet — opens the run, and readies it to step; the caller installs
// the mode hooks (instant arrival handler, or a batcher).
func (e *Engine) openStream(fleetEvents []model.MarketEvent) (*Stream, error) {
	for i, ev := range fleetEvents {
		if ev.Kind == model.EventCancel {
			return nil, fmt.Errorf("sim: fleet event %d: cancellations cannot be pre-scheduled on a stream", i)
		}
	}
	r, err := e.openRun(nil, fleetEvents, true)
	if err != nil {
		return nil, err
	}
	r.watchCancels()
	r.init()
	return &Stream{e: e, r: r}, nil
}

// NewStream resets the engine and opens a streaming run dispatched by
// d. fleetEvents optionally pre-schedules driver events known upfront:
// join events make their drivers invisible to dispatch until the join
// time (exactly as RunScenario treats them), retire events end shifts
// early. Cancellations cannot be pre-scheduled — their tasks do not
// exist yet; submit them live via CancelTask.
func (e *Engine) NewStream(d Dispatcher, fleetEvents []model.MarketEvent) (*Stream, error) {
	if d == nil {
		return nil, fmt.Errorf("sim: nil dispatcher")
	}
	s, err := e.openStream(fleetEvents)
	if err != nil {
		return nil, err
	}
	s.r.d = d
	s.r.onArrival = s.r.instantArrival
	return s, nil
}

// NewBatchedStream resets the engine and opens a streaming run with
// windowed batched dispatch: submitted tasks join the open window (the
// first order with no close pending opens one and anchors its close
// window seconds later), SubmitTask answers Pending, and the decisions
// arrive through the handler installed with SetDecisionHandler when the
// window's internal close event fires — on the next submission at or
// past the close time, an explicit AdvanceTo, or Finish. Replaying a
// trace through a batched stream in canonical order is bit-identical to
// RunBatchedScenario on the whole day; the differential tests hold that
// line. A non-positive (or non-finite) window is rejected with an
// error, mirroring the validation the public dispatch options perform.
//
// Deprecated parameter: algo selects nothing — every window is solved
// by the exact sparse Hungarian — and must be BatchHungarian; it stays
// in the signature only because the frozen benchmark/ passes it.
func (e *Engine) NewBatchedStream(window float64, algo BatchAlgorithm, fleetEvents []model.MarketEvent) (*Stream, error) {
	if !(window > 0) || math.IsInf(window, 1) {
		return nil, fmt.Errorf("sim: batch window must be a positive finite number of seconds, got %g", window)
	}
	if algo != BatchHungarian {
		return nil, fmt.Errorf("sim: unknown batch algorithm %v (the only window solver is %v)", algo, BatchHungarian)
	}
	s, err := e.openStream(fleetEvents)
	if err != nil {
		return nil, err
	}
	s.b = newBatcher(s.r, window)
	return s, nil
}

// SetDecisionHandler registers fn to receive every dispatch decision
// the stream makes after the task's submission returned — the batched
// mode's deferred window-close decisions. Install it before submitting
// traffic; the handler runs synchronously inside whichever call drains
// the deciding event (SubmitTask, CancelTask, Step, AdvanceTo, Finish).
func (s *Stream) SetDecisionHandler(fn func(TaskDecision)) {
	s.r.onDecided = fn
}

// SetBatchCloseHandler registers fn to receive each closed window's
// stats, after the window's per-task decisions were delivered. It is a
// no-op on instant-dispatch streams.
func (s *Stream) SetBatchCloseHandler(fn func(BatchStats)) {
	if s.b != nil {
		s.b.onClose = fn
	}
}

// BatchDue reports the scheduled close time of the open batch window,
// if the stream dispatches in batched mode and a window is open.
func (s *Stream) BatchDue() (closeAt float64, open bool) {
	if s.b == nil || !s.b.open() {
		return 0, false
	}
	return s.b.closeAt, true
}

// PendingTasks returns the number of submitted orders waiting in the
// open batch window for their decision; 0 on instant-dispatch streams.
func (s *Stream) PendingTasks() int {
	if s.b == nil {
		return 0
	}
	return len(s.b.batch)
}

// submit pushes ev and steps the run until ev itself has been handled —
// which first drains everything ordered before it: pre-scheduled fleet
// events, revocation frees from earlier cancellations. Dynamic sequence
// numbers are unique, so the match on push's stamp is unambiguous.
func (s *Stream) submit(ev event) {
	r := s.r
	seq := r.push(ev)
	for {
		popped := heap.Pop(&r.q, eventBefore)
		r.handle(popped)
		if popped.Seq == seq {
			return
		}
	}
}

// clampLate returns at, or the stream's current time if at lies in the
// past: the platform cannot act retroactively, so a late event is
// processed the moment it arrives. Callers wanting strict ordering
// reject late events before submitting (the dispatch package's
// WithStrictTimes does).
func (s *Stream) clampLate(at float64) float64 {
	if s.r.started && at < s.r.now {
		return s.r.now
	}
	return at
}

// checkOpen reports ErrFinished once the stream has been finished, the
// typed alternative to panicking on use-after-Finish.
func (s *Stream) checkOpen() error {
	if s.closed {
		return ErrFinished
	}
	return nil
}

// Finished reports whether Finish has settled and closed the stream.
func (s *Stream) Finished() bool { return s.closed }

// SubmitTask registers the task and dispatches it at its publish time
// (or now, if the submission is late). On an instant stream the
// returned decision is final; on a batched stream the task joins the
// open window (processing any due window close first) and the decision
// comes back Pending, to be delivered through the decision handler at
// DecideAt. Tasks are indexed by submission order; the caller keeps its
// own ID mapping. A finished stream reports ErrFinished.
func (s *Stream) SubmitTask(t model.Task) (TaskDecision, error) {
	if err := s.checkOpen(); err != nil {
		return TaskDecision{}, err
	}
	r := s.r
	ti := len(r.tasks)
	r.tasks = append(r.tasks, t)
	r.cancelled = append(r.cancelled, false)
	at := s.clampLate(t.Publish)
	s.submit(event{Key: at, Kind: evArrival, At: at, Idx: ti})
	dec := TaskDecision{Task: ti, Driver: -1, At: at}
	if s.b != nil {
		// The arrival joined (or opened) a window whose close is
		// strictly after at, so the task is always still pending here.
		dec.Pending, dec.DecideAt = true, s.b.closeAt
		return dec, nil
	}
	if drv, ok := r.res.Assignment[ti]; ok {
		dec.Assigned, dec.Driver = true, drv
		if info, ok := r.inflight[ti]; ok {
			dec.PickupAt = info.Arrival
		}
	}
	return dec, nil
}

// CancelTask submits a rider cancellation for task ti at the given
// time. ok reports whether the cancellation took effect; false means it
// arrived too late (or the task was never assigned) and any ride
// proceeds, with the same semantics as RunScenario's cancel events.
// When an assignment was revoked, freedDriver is the engine index of
// the driver released back into the market, -1 otherwise. A finished
// stream reports ErrFinished.
func (s *Stream) CancelTask(ti int, at float64) (freedDriver int, ok bool, err error) {
	if err := s.checkOpen(); err != nil {
		return -1, false, err
	}
	r := s.r
	if ti < 0 || ti >= len(r.tasks) {
		panic(fmt.Sprintf("sim: cancel of unknown task %d", ti))
	}
	drv, assigned := r.res.Assignment[ti]
	before := r.res.Cancelled
	at = s.clampLate(at)
	s.submit(event{Key: at, Kind: evCancel, At: at, Idx: ti})
	if r.res.Cancelled > before {
		if assigned {
			return drv, true, nil
		}
		return -1, true, nil
	}
	return -1, false, nil
}

// JoinDriver re-announces a registered driver at the given time: an
// absent driver (not yet joined, or retired) becomes visible to
// dispatch from that time on. Joining later than her shift start delays
// her earliest departure, exactly as a pre-scheduled join event would;
// a join time in the future is scheduled rather than applied now. A
// finished stream reports ErrFinished.
func (s *Stream) JoinDriver(i int, at float64) error {
	return s.fleetEvent(evJoin, "join", i, at)
}

// RetireDriver removes a registered driver from the market at the given
// time: no new tasks, though an in-flight assignment still completes. A
// retirement time in the future is scheduled rather than applied now. A
// finished stream reports ErrFinished.
func (s *Stream) RetireDriver(i int, at float64) error {
	return s.fleetEvent(evRetire, "retire", i, at)
}

// fleetEvent routes a join or retirement of driver i by its timestamp:
// one at or before the stream's current time is processed immediately
// (with everything queued before it, exactly as submit does); a future
// one is left on the heap to fire when the drain reaches its time. The
// distinction matters twice over — a future event must not fast-forward
// the market clock past traffic that has not arrived yet, and the heap
// firing it later is precisely how the batch drain would order it.
func (s *Stream) fleetEvent(kind int, verb string, i int, at float64) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if i < 0 || i >= len(s.e.Drivers) {
		panic(fmt.Sprintf("sim: %s of unknown driver %d", verb, i))
	}
	at = s.clampLate(at)
	ev := event{Key: at, Kind: kind, At: at, Idx: i}
	if s.r.future(at) {
		s.r.push(ev)
	} else {
		s.submit(ev)
	}
	return nil
}

// AddDriver registers a genuinely new driver mid-stream and returns her
// engine index. She becomes visible to dispatch at the given time: at
// or before the stream's current time means immediately, a future time
// schedules her announcement as a join event — before it fires she is
// registered but invisible, exactly like an upfront roster entry with a
// pending join. The candidate source grows its id space by the one
// driver either way (CandidateSource.Added); nothing is rebuilt. A
// finished stream reports ErrFinished.
func (s *Stream) AddDriver(d model.Driver, at float64) (int, error) {
	if err := s.checkOpen(); err != nil {
		return -1, err
	}
	e := s.e
	r := s.r
	at = s.clampLate(at)
	i := len(e.Drivers)
	future := r.future(at)
	e.Drivers = append(e.Drivers, d)
	st := DriverStateSnap{FreeAt: d.Start, Loc: d.Source}
	if !future && st.FreeAt < at {
		st.FreeAt = at
	}
	e.states = append(e.states, st)
	e.present = append(e.present, !future)
	e.memo = append(e.memo, driverSnap{})
	r.res.PerDriverRevenue = append(r.res.PerDriverRevenue, 0)
	r.res.PerDriverProfit = append(r.res.PerDriverProfit, 0)
	r.res.PerDriverTasks = append(r.res.PerDriverTasks, 0)
	r.res.DriverPaths = append(r.res.DriverPaths, nil)
	e.source.Added(i)
	if future {
		r.push(event{Key: at, Kind: evJoin, At: at, Idx: i})
	}
	return i, nil
}

// Step processes the next queued event, if any — deferred revocation
// frees, pre-scheduled fleet events — and reports whether one was
// handled. Submissions step through everything ordered before them
// automatically; Step exists for callers pacing the queue themselves. A
// finished stream reports ErrFinished.
func (s *Stream) Step() (bool, error) {
	if err := s.checkOpen(); err != nil {
		return false, err
	}
	return s.r.step(), nil
}

// AdvanceTo processes every queued event ordered at or before time t
// and moves the stream clock to t, so subsequent late submissions clamp
// to t and a pacing Clock sleeps through the silent gap. Advancing
// backwards is a no-op. A finished stream reports ErrFinished.
func (s *Stream) AdvanceTo(t float64) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	r := s.r
	for len(r.q) > 0 && r.q[0].Key <= t {
		r.step()
	}
	r.advance(t)
	return nil
}

// Now returns the stream's current simulated time: the latest event
// time processed (or advanced to). Zero before any event.
func (s *Stream) Now() float64 { return s.r.now }

// Engine returns the engine driving this stream. The durable dispatch
// rail uses it to rebuild a stream from a captured state (RestoreStream
// is an Engine method that replaces the engine's run in place).
func (s *Stream) Engine() *Engine { return s.e }

// DriverCount returns the number of registered drivers, present or not.
func (s *Stream) DriverCount() int { return len(s.e.Drivers) }

// PresentDrivers counts the drivers currently visible to dispatch.
func (s *Stream) PresentDrivers() int {
	n := 0
	for _, p := range s.e.present {
		if p {
			n++
		}
	}
	return n
}

// TaskCount returns the number of tasks submitted so far.
func (s *Stream) TaskCount() int { return len(s.r.tasks) }

// Present reports whether driver i is currently visible to dispatch.
func (s *Stream) Present(i int) bool { return s.e.present[i] }

// TaskPublish returns the publish time task i was registered with.
func (s *Stream) TaskPublish(i int) float64 { return s.r.tasks[i].Publish }

// Snapshot settles a copy of the in-progress accounts and returns the
// aggregate Result as of the last processed event. Only the aggregate
// and per-driver financial fields are populated — DriverPaths and
// Assignment stay nil to keep the live bookkeeping unshared.
//
// Revocations already granted but whose driver-free events are still
// queued (they fire in heap order, possibly behind same-instant fleet
// events — eagerly draining them here would reorder the batch-identical
// event sequence) are accounted for by settling those drivers at their
// pre-assignment state, so Served + Rejected + Cancelled + PendingTasks
// always equals the submitted task count and no cancelled trip is
// counted as served revenue. (PendingTasks is 0 on instant streams:
// orders waiting in a batched stream's open window are the one way a
// submitted task can be none of served, rejected or cancelled.) A
// finished stream reports ErrFinished: the live bookkeeping it settles
// from was released by Finish, whose Result is the settled answer.
func (s *Stream) Snapshot() (Result, error) {
	if err := s.checkOpen(); err != nil {
		return Result{}, err
	}
	e := s.e
	r := s.r
	res := Result{
		Served:           r.res.Served - len(r.revert),
		Rejected:         r.res.Rejected,
		Cancelled:        r.res.Cancelled,
		PerDriverRevenue: make([]float64, len(e.Drivers)),
		PerDriverProfit:  make([]float64, len(e.Drivers)),
		PerDriverTasks:   make([]int, len(e.Drivers)),
	}
	// Settle with pending revocations applied: swap each affected
	// driver to her pre-assignment state for the duration of the
	// settlement, then restore. The stream is single-threaded (callers
	// serialize), so the temporary mutation is invisible.
	saved := make(map[int]DriverStateSnap, len(r.revert))
	for drv, info := range r.revert {
		saved[drv] = e.states[drv]
		e.states[drv] = info.Prev
	}
	e.settle(&res)
	for drv, st := range saved {
		e.states[drv] = st
	}
	return res, nil
}

// Finish drains the remaining queue (deferred revocation frees,
// unfired fleet events), settles the accounts and returns the final
// Result. The stream is closed afterwards; the engine may be reused for
// batch runs or a new stream. Finishing twice reports ErrFinished.
func (s *Stream) Finish() (Result, error) {
	if err := s.checkOpen(); err != nil {
		return Result{}, err
	}
	r := s.r
	for r.step() {
	}
	s.e.settle(&r.res)
	s.closed = true
	return r.res, nil
}
