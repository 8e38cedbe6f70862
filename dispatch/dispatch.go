// Package dispatch is the public face of the ride-sharing market
// framework: a long-lived, incremental dispatch service for the online
// market of the source paper (Jia, Xu, Liu — ICDCS 2017). Where the
// internal simulator replays a complete day's trace in one call, a
// Service keeps the market open: tasks are submitted one at a time and
// answered instantly, drivers join and retire while the market runs,
// riders cancel before pickup, and every decision streams out on a
// subscribable event feed.
//
// Construct a Service with New over an initial Market (fleet plus cost
// constants) and functional options:
//
//	svc, err := dispatch.New(dispatch.Market{Drivers: fleet},
//	    dispatch.WithDispatcher(dispatch.MaxMargin),
//	    dispatch.WithSeed(7))
//
// then drive it with SubmitTask / AddDriver / RetireDriver /
// CancelTask, observe it with Snapshot and Subscribe, and settle the
// books with Close.
//
// By default every task is answered the instant it is submitted. A
// service built WithBatching(window, Hungarian) instead accumulates the
// orders of each window and clears them together with an exact
// maximum-weight matching at the window close: SubmitTask
// returns a pending Assignment, the decision arrives on the event feed
// (and via Decision) when the window closes, and an EventBatchClosed
// feed entry carries each window's stats. Windows close when market
// time passes them — and additionally on the wall clock when the
// service is built WithRealTime, so a live market with no follow-up
// traffic still answers its riders.
//
// Determinism is part of the contract: a Service fed a day's tasks and
// fleet events in timestamp order produces assignments bit-identical to
// the internal batch simulator replaying the same day in one call —
// the differential tests in this package hold that guarantee. Every
// service finds an order's feasible drivers through one spatial index
// over the fleet; no option selects it, and the reference it is held to
// is the simulator's exact scan of every driver. Late submissions
// (timestamps before the service's current time) are processed at the
// current time, or rejected when the service is built WithStrictTimes.
//
// All times are float64 seconds on one market-wide clock, distances are
// kilometres, money is in abstract currency units — the conventions of
// the paper's Table I.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// Point is a WGS84 coordinate.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Driver is one worker in the market: she starts her day at Source,
// must end it at Dest inside [Start, End], and serves tasks along the
// way.
type Driver struct {
	// ID is the caller's identifier for the driver; it must be unique
	// across the fleet.
	ID     int     `json:"id"`
	Source Point   `json:"source"`
	Dest   Point   `json:"dest"`
	Start  float64 `json:"start"` // earliest departure (seconds)
	End    float64 `json:"end"`   // latest arrival at Dest (seconds)

	// SpeedKmh optionally overrides the market-wide driving speed for
	// this driver; 0 uses the market default.
	SpeedKmh float64 `json:"speed_kmh,omitempty"`

	// JoinAt is when the platform learns the driver exists. Zero means
	// she is known upfront; a positive value keeps her invisible to
	// dispatch until that instant (a mid-day announcement). For
	// drivers added to a running service, zero means "now".
	JoinAt float64 `json:"join_at,omitempty"`
}

// Task is one rider order: pick up at Source by StartBy, drop off at
// Dest by EndBy, paying Price to the serving driver.
type Task struct {
	// ID is the caller's identifier for the task; it must be unique
	// across the day.
	ID      int     `json:"id"`
	Publish float64 `json:"publish"` // when the rider submits the order
	Source  Point   `json:"source"`
	Dest    Point   `json:"dest"`
	StartBy float64 `json:"start_by"` // pickup deadline
	EndBy   float64 `json:"end_by"`   // dropoff deadline

	Price float64 `json:"price"` // payoff to the serving driver
	// WTP is the rider's willingness to pay; zero defaults to Price
	// (the platform captured the full surplus).
	WTP float64 `json:"wtp,omitempty"`
}

// Market is the initial state of the two-sided market: the cost-model
// constants and the fleet known at opening time.
type Market struct {
	// SpeedKmh is the estimated average driving speed used to convert
	// distances into travel times; 0 uses the default 30 km/h.
	SpeedKmh float64 `json:"speed_kmh,omitempty"`
	// GasPerKm is the travel cost per kilometre; 0 uses the default
	// 0.09 currency units.
	GasPerKm float64 `json:"gas_per_km,omitempty"`

	Drivers []Driver `json:"drivers"`
}

// Assignment is the platform's answer to one submitted task. An
// instant service decides on the spot; a batched service (WithBatching)
// first answers with a pending handle — Pending true, DecideBy set —
// and delivers the decided form on the event feed at the window close
// (also queryable via Decision).
type Assignment struct {
	TaskID   int  `json:"task_id"`
	Assigned bool `json:"assigned"`
	// DriverID identifies the assigned driver, -1 when the task was
	// rejected (or is still pending).
	DriverID int `json:"driver_id"`
	// PickupBy is the assigned driver's estimated arrival time at the
	// pickup; meaningful only when Assigned.
	PickupBy float64 `json:"pickup_by,omitempty"`
	// DecidedAt is the effective decision time (the task's publish
	// time, or the service's current time for late submissions). For a
	// pending answer it is the time the order joined its window.
	DecidedAt float64 `json:"decided_at"`
	// Pending reports that the service dispatches in batched mode and
	// the decision is deferred to the close of the window the task
	// joined; DecideBy is that window's scheduled close time.
	Pending  bool    `json:"pending,omitempty"`
	DecideBy float64 `json:"decide_by,omitempty"`
}

// CancelOutcome reports what a rider cancellation achieved.
type CancelOutcome struct {
	TaskID int `json:"task_id"`
	// Cancelled reports whether the cancellation took effect; false
	// means it arrived after pickup (or the task was never assigned)
	// and any ride proceeds.
	Cancelled bool `json:"cancelled"`
	// FreedDriverID is the driver released back into the market when
	// an assignment was revoked, -1 otherwise.
	FreedDriverID int `json:"freed_driver_id"`
}

// Stats is an aggregate view of the market, mid-run (Snapshot) or final
// (Close). Financial fields are settled as if every in-flight
// commitment ran to completion at the moment of the snapshot.
type Stats struct {
	Now            float64 `json:"now"` // latest processed event time
	Drivers        int     `json:"drivers"`
	PresentDrivers int     `json:"present_drivers"`
	Tasks          int     `json:"tasks"` // submitted so far
	Served         int     `json:"served"`
	Rejected       int     `json:"rejected"`
	Cancelled      int     `json:"cancelled"`
	// Pending counts orders waiting in a batched service's open window
	// for their decision; always 0 on an instant service, and 0 after
	// Close. Served + Rejected + Cancelled + Pending == Tasks.
	Pending int     `json:"pending,omitempty"`
	Revenue float64 `json:"revenue"`
	Profit  float64 `json:"profit"` // drivers' total profit (Eq. 4)

	// Shed counts submissions refused with ErrOverloaded at the
	// WithMaxPending admission bound. Shed submissions never register,
	// so they are outside Tasks and the books identity above.
	Shed int `json:"shed,omitempty"`
	// MaxPending echoes the WithMaxPending bound, 0 when admission is
	// unbounded.
	MaxPending int `json:"max_pending,omitempty"`
	// FeedDrops counts events dropped across all feed subscribers whose
	// buffers were full (each drop run is followed by an EventGap notice
	// on the affected subscriber's channel).
	FeedDrops int `json:"feed_drops,omitempty"`
}

// Service is a running dispatch market. It is safe for concurrent use:
// operations serialize on an internal mutex and are applied in arrival
// order. Construct with New, shut down with Close.
type Service struct {
	mu     sync.Mutex
	st     *sim.Stream
	strict bool
	closed bool

	drivers   driverTable  // public driver ID -> engine index
	driverIDs []int        // engine index -> public driver ID
	retired   map[int]bool // driver IDs retired (possibly at a future time)
	tasks     map[int]int  // public task ID -> engine index
	taskIDs   []int        // engine index -> public task ID

	// Batched mode (WithBatching): decided records the platform's
	// answer per task as it lands — instantly, or at a window close —
	// for Decision queries; liveBatch arms the wall-clock window timer
	// (WithRealTime on a batched service).
	batched   bool
	liveBatch bool
	decided   map[int]Assignment
	timer     *time.Timer
	timerAt   float64

	// final is the full settled simulator result, kept after Close for
	// the differential tests that compare a service replay bit-for-bit
	// against the batch engine.
	final      *sim.Result
	finalStats Stats

	// Admission bound (WithMaxPending). shed and inflight are atomics
	// because the instant-mode gate runs before the mutex is taken —
	// that is the point: a submission blocked behind a slow decision
	// must be refusable without waiting for it.
	maxPending int
	shed       atomic.Int64
	inflight   atomic.Int64

	subs      map[int]*subscriber
	nextSub   int
	feedDrops int // total events dropped across all subscribers

	// Durable rail (WithDurability): jr journals every externally
	// injected mutation to the write-ahead log before it is applied and
	// cuts periodic snapshots; nil on in-memory services. cfg is retained
	// for the snapshots' config fingerprint.
	jr  *journal
	cfg config

	// digest is a rolling 64-bit digest of every decision made so far
	// (foldDecision, foldCancel). Each journal record and snapshot
	// carries its value, and a replay that reaches a record with a
	// different one stops there (ErrReplayDiverged).
	digest uint64
}

// New opens a dispatch service over the market. Drivers with a positive
// JoinAt stay invisible to dispatch until that time; everyone else is
// present from the start. The returned service accepts traffic until
// Close.
func New(m Market, opts ...Option) (*Service, error) {
	cfg := config{policy: MaxMargin, seed: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	d, err := cfg.policy.dispatcher()
	if err != nil {
		return nil, err
	}

	mkt := model.DefaultMarket()
	if m.SpeedKmh != 0 {
		mkt.SpeedKmh = m.SpeedKmh
	}
	if m.GasPerKm != 0 {
		mkt.GasPerKm = m.GasPerKm
	}
	switch {
	case cfg.distFunc != nil:
		if cfg.durDir != "" {
			return nil, fmt.Errorf("%w: WithDistanceFunc cannot be journaled; a durable service needs WithRoadNetwork", ErrInvalidOption)
		}
		mkt.Dist = cfg.distFunc
	case cfg.roadnet != nil:
		router, rerr := cfg.roadnet.build()
		if rerr != nil {
			return nil, rerr
		}
		mkt.Dist = router.Dist
		// The router's snapped and one-to-many forms are bitwise equal
		// to looped Dist calls, so the engine scores candidates through
		// them — every order and driver resolved to its road node once,
		// not once per pair — without perturbing a single decision. The
		// snaps the engine keeps are derived from driver state the
		// journal already holds: nothing about them is logged.
		mkt.Batch = router
	}

	s := &Service{
		strict:     cfg.strict,
		drivers:    newDriverTable(len(m.Drivers)),
		driverIDs:  make([]int, len(m.Drivers)),
		retired:    make(map[int]bool),
		tasks:      make(map[int]int),
		decided:    make(map[int]Assignment),
		batched:    cfg.batchWindow > 0,
		liveBatch:  cfg.batchWindow > 0 && cfg.realTime,
		maxPending: cfg.maxPending,
		subs:       make(map[int]*subscriber),
		cfg:        cfg,
	}
	drivers := make([]model.Driver, len(m.Drivers))
	var fleet []model.MarketEvent
	for i, pd := range m.Drivers {
		if _, dup := s.drivers.get(pd.ID); dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateDriver, pd.ID)
		}
		md, err := toModelDriver(pd)
		if err != nil {
			return nil, err
		}
		drivers[i] = md
		s.drivers.put(pd.ID, i)
		s.driverIDs[i] = pd.ID
		if pd.JoinAt > 0 {
			fleet = append(fleet, model.MarketEvent{At: pd.JoinAt, Kind: model.EventJoin, Driver: i})
		}
	}

	eng, err := sim.NewOwned(mkt, drivers, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidDriver, err)
	}
	eng.RealTime = cfg.realTime
	if cfg.clock != nil {
		eng.Clock = cfg.clock
	}
	var st *sim.Stream
	if s.batched {
		st, err = eng.NewBatchedStream(cfg.batchWindow, sim.BatchHungarian, fleet)
	} else {
		st, err = eng.NewStream(d, fleet)
	}
	if err != nil {
		return nil, fmt.Errorf("dispatch: %v", err)
	}
	if s.batched {
		// Both handlers run synchronously inside whichever Service call
		// drains the window-close event, so the mutex is already held.
		st.SetDecisionHandler(s.onWindowDecision)
		st.SetBatchCloseHandler(s.onWindowClosed)
	}
	s.st = st
	if cfg.durDir != "" {
		if err := s.openJournal(m); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// driverTable maps public driver IDs to engine indices: a slice over the
// ID range [0, n) of an opening fleet of n, where a fleet's IDs usually
// all lie, and a map for any ID outside it — the pattern of
// model.ValidateAll's ID set — so that opening a market hashes no ID of
// a fleet numbered from zero.
type driverTable struct {
	dense []int32     // ID -> engine index + 1, 0 for an unknown ID
	other map[int]int // every known ID outside [0, len(dense))
}

func newDriverTable(n int) driverTable { return driverTable{dense: make([]int32, n)} }

// get returns id's engine index, and whether id is known.
func (t *driverTable) get(id int) (int, bool) {
	if uint(id) < uint(len(t.dense)) {
		idx := int(t.dense[id]) - 1
		return idx, idx >= 0
	}
	idx, ok := t.other[id]
	return idx, ok
}

// put records id at engine index idx, which the engine's int32 id space
// bounds.
func (t *driverTable) put(id, idx int) {
	if uint(id) < uint(len(t.dense)) {
		t.dense[id] = int32(idx + 1)
		return
	}
	if t.other == nil {
		t.other = make(map[int]int)
	}
	t.other[id] = idx
}

// onWindowDecision records and publishes one deferred window-close
// decision. Called by the stream with the mutex held.
func (s *Service) onWindowDecision(dec sim.TaskDecision) {
	s.decide(s.taskIDs[dec.Task], dec)
}

// decide records, folds and publishes the final decision on task id,
// made at submission (instant) or at a window close (batched).
func (s *Service) decide(id int, dec sim.TaskDecision) Assignment {
	a := Assignment{TaskID: id, DriverID: -1, DecidedAt: dec.At}
	ev := Event{Type: EventRejected, At: dec.At, TaskID: id, DriverID: -1}
	if dec.Assigned {
		a.Assigned = true
		a.DriverID = s.driverIDs[dec.Driver]
		a.PickupBy = dec.PickupAt
		ev.Type, ev.DriverID = EventAssigned, a.DriverID
	}
	s.decided[id] = a
	s.foldDecision(a)
	s.publish(ev)
	return a
}

// onWindowClosed publishes the closed window's stats on the feed.
// Called by the stream with the mutex held, after the window's per-task
// decisions were delivered.
func (s *Service) onWindowClosed(bs sim.BatchStats) {
	stats := BatchStats{
		OpenedAt:  bs.OpenedAt,
		ClosedAt:  bs.ClosedAt,
		Submitted: bs.Submitted,
		Cancelled: bs.Cancelled,
		Matched:   bs.Matched,
		Rejected:  bs.Rejected,
	}
	s.publish(Event{Type: EventBatchClosed, At: bs.ClosedAt, TaskID: -1, DriverID: -1, Batch: &stats})
}

// armBatchTimer schedules a wall-clock close for the open batch window
// of a live batched service (WithBatching + WithRealTime), mapping one
// simulated second to one wall second. Must be called with the mutex
// held; it is a no-op when no window is open or the open window's timer
// is already armed.
func (s *Service) armBatchTimer() {
	if !s.liveBatch || s.closed {
		return
	}
	closeAt, open := s.st.BatchDue()
	if !open || (s.timer != nil && s.timerAt == closeAt) {
		return
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	delay := time.Duration((closeAt - s.st.Now()) * float64(time.Second))
	if delay < 0 {
		delay = 0
	}
	s.timerAt = closeAt
	s.timer = time.AfterFunc(delay, func() { s.fireBatchTimer(closeAt) })
}

// fireBatchTimer closes the window the timer was armed for, unless the
// event flow already closed it (a submission or cancellation past the
// close time drains the close first — the stale fire is then a no-op).
func (s *Service) fireBatchTimer(closeAt float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if due, open := s.st.BatchDue(); open && due == closeAt {
		// A wall-clock close is a market mutation like any other: journal
		// the tick so a restored run closes the window at the same
		// instant, whatever the wall clock said. If the journal refuses
		// (disk full, closed log), the close stays pending — the next
		// event past the close time will drain it.
		if err := s.journal(walRecord{Kind: recAdvance, At: closeAt}); err == nil {
			s.st.AdvanceTo(closeAt)
		}
	}
	if s.timerAt == closeAt {
		s.timer = nil
	}
	s.armBatchTimer()
}

// mixDigest folds one 64-bit word into the decision digest. Each step
// is a bijection of the running value, so no earlier difference is ever
// absorbed.
func mixDigest(d, x uint64) uint64 {
	d = (d ^ x) * 0x9e3779b97f4a7c15
	return d ^ d>>29
}

// foldDecision folds a final answer — instant, or delivered at a window
// close — into the decision digest. Pending handles are not decisions.
// Must be called with the mutex held.
func (s *Service) foldDecision(a Assignment) {
	d := mixDigest(s.digest, uint64(a.TaskID))
	d = mixDigest(d, uint64(a.DriverID))
	d = mixDigest(d, math.Float64bits(a.PickupBy))
	s.digest = mixDigest(d, math.Float64bits(a.DecidedAt))
}

// foldCancel folds a cancellation's outcome into the decision digest.
// Must be called with the mutex held.
func (s *Service) foldCancel(out CancelOutcome) {
	var took uint64
	if out.Cancelled {
		took = 1
	}
	d := mixDigest(s.digest, uint64(out.TaskID))
	d = mixDigest(d, took)
	s.digest = mixDigest(d, uint64(out.FreedDriverID))
}

// toModelDriver validates and converts a public driver.
func toModelDriver(d Driver) (model.Driver, error) {
	// Accept-form, so NaN (which fails every comparison) is rejected too.
	if !(d.JoinAt >= 0) || math.IsInf(d.JoinAt, 1) {
		return model.Driver{}, fmt.Errorf("%w: driver %d: join time %g not a finite non-negative number", ErrInvalidDriver, d.ID, d.JoinAt)
	}
	md := d.model()
	if err := md.Validate(); err != nil {
		return model.Driver{}, fmt.Errorf("%w: %v", ErrInvalidDriver, err)
	}
	return md, nil
}

// toModelTask validates and converts a public task, defaulting WTP.
func toModelTask(t Task) (model.Task, error) {
	mt := t.model()
	if mt.WTP == 0 {
		mt.WTP = mt.Price
	}
	if err := mt.Validate(); err != nil {
		return model.Task{}, fmt.Errorf("%w: %v", ErrInvalidTask, err)
	}
	return mt, nil
}

// checkAdmission enforces the WithMaxPending bound of a batched
// service for a submission timestamped at. The submission is shed while
// the open window already holds maxPending undecided orders — unless
// its effective time reaches the window's close, in which case
// processing it drains the window first and admission is granted so a
// full window can never wedge the market. Must be called with the
// mutex held.
func (s *Service) checkAdmission(at float64) error {
	due, open := s.st.BatchDue()
	if !open {
		return nil
	}
	pending := s.st.PendingTasks()
	if pending < s.maxPending {
		return nil
	}
	if now := s.st.Now(); at < now {
		at = now
	}
	if at >= due {
		return nil
	}
	s.shed.Add(1)
	return fmt.Errorf("%w: %d orders pending in the open window (cap %d)", ErrOverloaded, pending, s.maxPending)
}

// errClosed is the error mutators return once the service is closed:
// it matches both ErrClosed and ErrFinished (the day is settled), so
// errors.Is works with either sentinel.
func errClosed() error {
	return fmt.Errorf("%w: %w", ErrClosed, ErrFinished)
}

// simErr converts an unexpected error from the underlying stream into
// the service's typed vocabulary: a finished stream surfaces as
// ErrFinished instead of leaking the internal sentinel.
func simErr(err error) error {
	if errors.Is(err, sim.ErrFinished) {
		return fmt.Errorf("%w: %v", ErrFinished, err)
	}
	return err
}

// checkTime enforces the service's ordering policy for a submission
// timestamped at. It must be called with the mutex held.
func (s *Service) checkTime(at float64) error {
	if s.strict && at < s.st.Now() {
		return fmt.Errorf("%w: %g < %g", ErrOutOfOrder, at, s.st.Now())
	}
	return nil
}

// SubmitTask submits one rider order and returns the platform's
// instant decision: the assigned driver, or a rejection. The decision
// happens at the task's publish time (clamped to the service's current
// time if the submission is late). A service built WithMaxPending may
// instead shed the submission with ErrOverloaded — nothing is
// registered and the rider may retry.
func (s *Service) SubmitTask(ctx context.Context, t Task) (Assignment, error) {
	if err := ctx.Err(); err != nil {
		return Assignment{}, err
	}
	if s.maxPending > 0 && !s.batched {
		// Instant mode bounds submissions in flight. The gate sits
		// before the mutex so a pile-up behind a slow decision (pacing
		// clock, saturated hardware) is refused immediately instead of
		// joining the convoy.
		if n := s.inflight.Add(1); n > int64(s.maxPending) {
			s.inflight.Add(-1)
			s.shed.Add(1)
			return Assignment{}, fmt.Errorf("%w: %d submissions in flight (cap %d)", ErrOverloaded, n, s.maxPending)
		}
		defer s.inflight.Add(-1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Assignment{}, errClosed()
	}
	if _, dup := s.tasks[t.ID]; dup {
		return Assignment{}, fmt.Errorf("%w: %d", ErrDuplicateTask, t.ID)
	}
	if s.maxPending > 0 && s.batched {
		if err := s.checkAdmission(t.Publish); err != nil {
			return Assignment{}, err
		}
	}
	mt, err := toModelTask(t)
	if err != nil {
		return Assignment{}, err
	}
	if err := s.checkTime(t.Publish); err != nil {
		return Assignment{}, err
	}
	if err := s.journal(walRecord{Kind: recSubmit, Task: t}); err != nil {
		return Assignment{}, err
	}
	dec, serr := s.st.SubmitTask(mt)
	if serr != nil {
		return Assignment{}, simErr(serr)
	}
	s.tasks[t.ID] = dec.Task
	s.taskIDs = append(s.taskIDs, t.ID)

	if dec.Pending {
		// Batched mode: the order joined the open window (closing any
		// window that was due first); its decision arrives on the feed
		// at DecideBy. The handle is recorded so Decision answers
		// identically until the close overwrites it.
		a := Assignment{TaskID: t.ID, DriverID: -1, DecidedAt: dec.At, Pending: true, DecideBy: dec.DecideAt}
		s.decided[t.ID] = a
		s.publish(Event{Type: EventPending, At: dec.At, TaskID: t.ID, DriverID: -1})
		s.armBatchTimer()
		return a, nil
	}

	return s.decide(t.ID, dec), nil
}

// Decision reports the platform's current answer for a submitted task:
// the recorded assignment or rejection, or a pending handle while the
// task still waits in a batched service's open window. The answer is
// the decision as made — a later cancellation revoking it is reported
// through CancelOutcome and the feed, not here. Decision works on a
// closed service too (the final window was decided by Close).
func (s *Service) Decision(ctx context.Context, taskID int) (Assignment, error) {
	if err := ctx.Err(); err != nil {
		return Assignment{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tasks[taskID]; !ok {
		return Assignment{}, fmt.Errorf("%w: %d", ErrUnknownTask, taskID)
	}
	if a, ok := s.decided[taskID]; ok {
		return a, nil
	}
	// Unreachable by construction: every registered task writes its
	// decided entry at submission (pending handle or final answer).
	// Answer with a bare pending handle rather than guessing a DecideBy
	// from whatever window happens to be open now.
	return Assignment{TaskID: taskID, DriverID: -1, Pending: true}, nil
}

// AddDriver announces a driver to the running market. An unknown ID
// registers a new driver, visible to dispatch from max(JoinAt, now) —
// a JoinAt beyond the market's current time schedules the announcement
// rather than applying it early. A previously retired ID re-enters the
// market; any other known ID is rejected as a duplicate.
func (s *Service) AddDriver(ctx context.Context, d Driver) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed()
	}
	at := d.JoinAt
	if at == 0 {
		at = s.st.Now()
	}
	if err := s.checkTime(at); err != nil {
		return err
	}
	if effAt := s.st.Now(); at < effAt {
		at = effAt
	}
	if idx, known := s.drivers.get(d.ID); known {
		// Only a driver who has actually left the market may re-enter:
		// a still-present driver (including one whose retirement is
		// scheduled but has not fired — the queued retire event would
		// silently undo an early rejoin) and a driver pending her first
		// announcement are both duplicates.
		if s.st.Present(idx) || !s.retired[d.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateDriver, d.ID)
		}
		if err := s.journal(walRecord{Kind: recAddDriver, Driver: d}); err != nil {
			return err
		}
		delete(s.retired, d.ID)
		if err := s.st.JoinDriver(idx, at); err != nil {
			return simErr(err)
		}
		s.publish(Event{Type: EventDriverJoined, At: at, TaskID: -1, DriverID: d.ID})
		return nil
	}
	md, err := toModelDriver(d)
	if err != nil {
		return err
	}
	if err := s.journal(walRecord{Kind: recAddDriver, Driver: d}); err != nil {
		return err
	}
	idx, serr := s.st.AddDriver(md, at)
	if serr != nil {
		return simErr(serr)
	}
	s.drivers.put(d.ID, idx)
	s.driverIDs = append(s.driverIDs, d.ID)
	s.publish(Event{Type: EventDriverJoined, At: at, TaskID: -1, DriverID: d.ID})
	return nil
}

// RetireDriver removes the driver from the market at the given time:
// she accepts no further tasks, though an in-flight assignment still
// completes. A retirement time beyond the market's current time is
// scheduled rather than applied early. A retired driver may re-enter
// later via AddDriver.
func (s *Service) RetireDriver(ctx context.Context, driverID int, at float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed()
	}
	idx, ok := s.drivers.get(driverID)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDriver, driverID)
	}
	if err := s.checkTime(at); err != nil {
		return err
	}
	if err := s.journal(walRecord{Kind: recRetire, ID: driverID, At: at}); err != nil {
		return err
	}
	if effAt := s.st.Now(); at < effAt {
		at = effAt
	}
	if err := s.st.RetireDriver(idx, at); err != nil {
		return simErr(err)
	}
	s.retired[driverID] = true
	s.publish(Event{Type: EventDriverRetired, At: at, TaskID: -1, DriverID: driverID})
	return nil
}

// CancelTask withdraws a rider order at the given time. A cancellation
// landing before the assigned driver reaches the pickup revokes the
// assignment and frees the driver; after pickup it is too late and the
// ride proceeds (Cancelled reports which happened).
func (s *Service) CancelTask(ctx context.Context, taskID int, at float64) (CancelOutcome, error) {
	if err := ctx.Err(); err != nil {
		return CancelOutcome{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CancelOutcome{}, errClosed()
	}
	idx, ok := s.tasks[taskID]
	if !ok {
		return CancelOutcome{}, fmt.Errorf("%w: %d", ErrUnknownTask, taskID)
	}
	if err := s.checkTime(at); err != nil {
		return CancelOutcome{}, err
	}
	if at <= s.taskPublish(idx) && s.strict {
		return CancelOutcome{}, fmt.Errorf("%w: task %d published at %g, cancel at %g",
			ErrInvalidCancel, taskID, s.taskPublish(idx), at)
	}
	if err := s.journal(walRecord{Kind: recCancel, ID: taskID, At: at}); err != nil {
		return CancelOutcome{}, err
	}
	freed, cancelled, serr := s.st.CancelTask(idx, at)
	if serr != nil {
		return CancelOutcome{}, simErr(serr)
	}
	out := CancelOutcome{TaskID: taskID, Cancelled: cancelled, FreedDriverID: -1}
	if cancelled {
		if prev, ok := s.decided[taskID]; !ok || prev.Pending {
			// Withdrawn while waiting in its batch window: the platform
			// will never decide it, so Decision reads it as unassigned
			// at the cancellation instant rather than pending forever.
			s.decided[taskID] = Assignment{TaskID: taskID, DriverID: -1, DecidedAt: s.st.Now()}
		}
		ev := Event{Type: EventCancelled, At: s.st.Now(), TaskID: taskID, DriverID: -1}
		if freed >= 0 {
			out.FreedDriverID = s.driverIDs[freed]
			ev.DriverID = out.FreedDriverID
		}
		s.publish(ev)
	}
	s.foldCancel(out)
	return out, nil
}

// taskPublish returns the registered publish time of a task by engine
// index. Must be called with the mutex held.
func (s *Service) taskPublish(idx int) float64 { return s.st.TaskPublish(idx) }

// Snapshot returns the market's aggregate state as of the last
// processed event, with accounts settled as if every in-flight
// commitment completed.
func (s *Service) Snapshot(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.finalStats, nil
	}
	res, err := s.st.Snapshot()
	if err != nil {
		return Stats{}, simErr(err)
	}
	return s.stats(res), nil
}

// stats converts a settled simulator result into public Stats. Must be
// called with the mutex held.
func (s *Service) stats(res sim.Result) Stats {
	return Stats{
		Now:            s.st.Now(),
		Drivers:        s.st.DriverCount(),
		PresentDrivers: s.st.PresentDrivers(),
		Tasks:          s.st.TaskCount(),
		Served:         res.Served,
		Rejected:       res.Rejected,
		Cancelled:      res.Cancelled,
		Pending:        s.st.PendingTasks(),
		Revenue:        res.Revenue,
		Profit:         res.TotalProfit,
		Shed:           int(s.shed.Load()),
		MaxPending:     s.maxPending,
		FeedDrops:      s.feedDrops,
	}
}

// Close drains the market's remaining internal events — on a batched
// service that includes deciding the still-open window, whose
// assignments reach the feed before the channels close — settles every
// driver's account and returns the final Stats. Subscriber channels
// are closed. Close is idempotent; later calls return the same Stats.
func (s *Service) Close() (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.finalStats, nil
	}
	var jerr error
	stats, err := s.shutdown(func() (sim.Result, error) {
		// Durable shutdown: persist a final snapshot of the pre-finish
		// state and journal the finish itself, so Restore rebuilds this
		// exact moment and settles the same books; then flush and fsync
		// the tail whatever the fsync policy. Journal failures here must
		// not wedge shutdown — closeJournal reports them after the books
		// settle.
		jerr = s.journalFinish()
		res, err := s.st.Finish()
		if err == nil {
			s.final = &res
		}
		return res, err
	})
	if err != nil {
		// A finished stream under an open service is unreachable by
		// construction; shutdown surfaces it typed rather than panicking.
		return Stats{}, err
	}
	return stats, s.closeJournal(jerr)
}

// shutdown closes the service: it stops the window timer, takes the
// books from settle, records their Stats as final and closes every
// subscriber channel. Close settles the day; Halt only reads it.
func (s *Service) shutdown(settle func() (sim.Result, error)) (Stats, error) {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	res, err := settle()
	if err != nil {
		return Stats{}, simErr(err)
	}
	stats := s.stats(res)
	s.finalStats = stats
	s.closed = true
	for id, sub := range s.subs {
		close(sub.ch)
		delete(s.subs, id)
	}
	return stats, nil
}

// Halt stops the service crash-consistently: the write-ahead log is
// synced and closed WITHOUT a finish record, the books are NOT settled,
// and pending window tasks stay pending — so a later Restore resumes
// the market exactly where it stopped instead of finding a settled day.
// This is the cooperative half of a rolling restart; the uncooperative
// half (kill -9) leaves the same log on disk, which is the point.
// After Halt, mutations return ErrClosed and Snapshot answers the stats
// as of the halt. Halt is idempotent with Close: whichever runs first
// decides whether the day settled.
func (s *Service) Halt() (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.finalStats, nil
	}
	stats, err := s.shutdown(s.st.Snapshot)
	if err != nil {
		return Stats{}, err
	}
	var jerr error
	if s.jr != nil {
		if serr := s.jr.lg.Sync(); serr != nil {
			jerr = fmt.Errorf("dispatch: syncing journal: %w", serr)
		}
	}
	return stats, s.closeJournal(jerr)
}
