package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/model"
)

// This file makes a suspended Stream's state portable: CaptureState
// deep-copies everything a run needs to continue — driver states, the
// pending event queue, the open batch window, the in-progress result,
// the RNG position — into an exported, serialization-friendly
// StreamState, and Engine.RestoreStream rebuilds a Stream from one that
// continues bit-identically to the captured run. The durable dispatch
// rail (dispatch.WithDurability / dispatch.Restore) persists a
// StreamState in each snapshot file so crash recovery replays only the
// write-ahead-log suffix after the snapshot, not the whole day; the
// state round-trip tests in this package prove capture → restore →
// continue equals never-interrupted, bit for bit.

// DriverStateSnap is one driver's mutable engine state.
type DriverStateSnap struct {
	FreeAt  float64   `json:"free_at"`
	Loc     geo.Point `json:"loc"`
	Revenue float64   `json:"revenue"`
	Cost    float64   `json:"cost"`
	NTasks  int       `json:"ntasks"`
}

// EventSnap is one pending entry of the run's event queue.
type EventSnap struct {
	Key  float64 `json:"key"`
	Kind int     `json:"kind"`
	Seq  int     `json:"seq"`
	At   float64 `json:"at"`
	Idx  int     `json:"idx"`
}

// InflightSnap is one revocable assignment: the driver's pre-assignment
// state kept while a rider cancellation could still revoke the trip.
type InflightSnap struct {
	Task    int             `json:"task"`
	Driver  int             `json:"driver"`
	Prev    DriverStateSnap `json:"prev"`
	Arrival float64         `json:"arrival"`
}

// BatchSnap is the open batch window of a batched stream.
type BatchSnap struct {
	Batch     []int   `json:"batch"`
	OpenedAt  float64 `json:"opened_at"`
	CloseAt   float64 `json:"close_at"`
	Open      bool    `json:"open"`
	Cancelled int     `json:"cancelled"`
}

// ResultSnap is the in-progress aggregate result. Per-driver financial
// fields are not captured: they are settled from driver states at
// Finish, so the driver states above are the authoritative copy.
type ResultSnap struct {
	Served      int         `json:"served"`
	Rejected    int         `json:"rejected"`
	Cancelled   int         `json:"cancelled"`
	Assignment  map[int]int `json:"assignment"`
	DriverPaths [][]int     `json:"driver_paths"`
}

// StreamState is a complete, self-contained copy of a suspended
// streaming run, sufficient to rebuild a Stream that continues
// bit-identically. All fields are exported and JSON-clean (no NaNs: the
// batcher's NaN close sentinel is carried as BatchSnap.Open), and a
// capture is deterministic: Inflight is ordered by task, Revert by
// driver.
type StreamState struct {
	Drivers   []model.Driver    `json:"drivers"`
	States    []DriverStateSnap `json:"states"`
	Present   []bool            `json:"present"`
	RNGDraws  uint64            `json:"rng_draws"`
	Now       float64           `json:"now"`
	Started   bool              `json:"started"`
	Seq       int               `json:"seq"`
	Tasks     []model.Task      `json:"tasks"`
	Cancelled []bool            `json:"cancelled"`
	Queue     []EventSnap       `json:"queue"`
	Inflight  []InflightSnap    `json:"inflight"`
	// Revert lists revocations granted but whose driver-free events are
	// still queued; keyed by driver via InflightSnap.Driver.
	Revert []InflightSnap `json:"revert"`
	Res    ResultSnap     `json:"res"`
	// Batch is nil on instant-dispatch streams.
	Batch *BatchSnap `json:"batch,omitempty"`
}

func snapDriverState(st driverState) DriverStateSnap {
	return DriverStateSnap{FreeAt: st.freeAt, Loc: st.loc, Revenue: st.revenue, Cost: st.cost, NTasks: st.ntasks}
}

func (s DriverStateSnap) state() driverState {
	return driverState{freeAt: s.FreeAt, loc: s.Loc, revenue: s.Revenue, cost: s.Cost, ntasks: s.NTasks}
}

// CaptureState deep-copies the suspended run into a StreamState. The
// stream must not be advanced concurrently (callers serialize, as the
// dispatch service does); a finished stream reports ErrFinished.
func (s *Stream) CaptureState() (*StreamState, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	e, r := s.e, s.r
	st := &StreamState{
		Drivers:   append([]model.Driver(nil), e.Drivers...),
		States:    make([]DriverStateSnap, len(e.states)),
		Present:   append([]bool(nil), e.present...),
		RNGDraws:  e.RNGDraws(),
		Now:       r.now,
		Started:   r.started,
		Seq:       r.seq,
		Tasks:     append([]model.Task(nil), r.tasks...),
		Cancelled: append([]bool{}, r.cancelled...),
	}
	for i, ds := range e.states {
		st.States[i] = snapDriverState(ds)
	}
	st.Queue = make([]EventSnap, len(r.q))
	for i, ev := range r.q {
		st.Queue[i] = EventSnap{Key: ev.key, Kind: int(ev.kind), Seq: ev.seq, At: ev.at, Idx: ev.idx}
	}
	for ti, info := range r.inflight {
		st.Inflight = append(st.Inflight, InflightSnap{Task: ti, Driver: info.driver, Prev: snapDriverState(info.prev), Arrival: info.arrival})
	}
	for drv, info := range r.revert {
		st.Revert = append(st.Revert, InflightSnap{Task: info.task, Driver: drv, Prev: snapDriverState(info.prev), Arrival: info.arrival})
	}
	// Both come out of maps: order them by their keys, so the same run
	// always captures the same state.
	slices.SortFunc(st.Inflight, func(a, b InflightSnap) int { return cmp.Compare(a.Task, b.Task) })
	slices.SortFunc(st.Revert, func(a, b InflightSnap) int { return cmp.Compare(a.Driver, b.Driver) })
	st.Res = ResultSnap{
		Served:      r.res.Served,
		Rejected:    r.res.Rejected,
		Cancelled:   r.res.Cancelled,
		Assignment:  make(map[int]int, len(r.res.Assignment)),
		DriverPaths: make([][]int, len(r.res.DriverPaths)),
	}
	for ti, drv := range r.res.Assignment {
		st.Res.Assignment[ti] = drv
	}
	for i, p := range r.res.DriverPaths {
		// Preserve nil-ness: a path emptied by a revoked assignment is
		// empty-but-non-nil, and a faithful restore keeps it that way.
		if p != nil {
			st.Res.DriverPaths[i] = append([]int{}, p...)
		}
	}
	if s.b != nil {
		bs := &BatchSnap{
			Batch:     append([]int(nil), s.b.batch...),
			OpenedAt:  s.b.openedAt,
			Cancelled: s.b.cancelled,
			Open:      s.b.open(),
		}
		if bs.Open {
			bs.CloseAt = s.b.closeAt
		}
		st.Batch = bs
	}
	return st, nil
}

// validate cross-checks the state's internal sizing so a corrupted
// snapshot fails loudly here instead of as an index panic mid-replay.
func (st *StreamState) validate() error {
	n := len(st.Drivers)
	if len(st.States) != n || len(st.Present) != n || len(st.Res.DriverPaths) != n {
		return fmt.Errorf("sim: state sizing mismatch: %d drivers, %d states, %d present, %d paths",
			n, len(st.States), len(st.Present), len(st.Res.DriverPaths))
	}
	if len(st.Cancelled) != len(st.Tasks) {
		return fmt.Errorf("sim: state sizing mismatch: %d tasks, %d cancelled flags", len(st.Tasks), len(st.Cancelled))
	}
	for ti, drv := range st.Res.Assignment {
		if ti < 0 || ti >= len(st.Tasks) || drv < 0 || drv >= n {
			return fmt.Errorf("sim: state assignment out of range: task %d -> driver %d", ti, drv)
		}
	}
	for _, ev := range st.Queue {
		if ev.Kind < int(evJoin) || ev.Kind > int(evReplan) {
			return fmt.Errorf("sim: state queue holds unknown event kind %d", ev.Kind)
		}
	}
	return nil
}

// RestoreStream rebuilds a suspended streaming run from a captured
// state, in the mode selected by the arguments: instant dispatch under
// d when the state has no batch section, else batched dispatch with the
// given window (which must match the capturing run's configuration —
// the engine cannot verify the window retroactively, only that the mode
// agrees). The engine's market constants, RealTime, Clock and candidate
// source must be configured as they were on the capturing engine before
// calling; the restored stream then continues bit-identically to the
// captured one.
func (e *Engine) RestoreStream(st *StreamState, d Dispatcher, window float64) (*Stream, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	if st.Batch == nil && d == nil {
		return nil, fmt.Errorf("sim: restoring an instant stream needs a dispatcher")
	}
	if st.Batch != nil && (!(window > 0) || math.IsInf(window, 1)) {
		return nil, fmt.Errorf("sim: restoring a batched stream needs a positive finite window, got %g", window)
	}

	e.Drivers = append([]model.Driver(nil), st.Drivers...)
	e.states = make([]driverState, len(st.States))
	for i, ds := range st.States {
		e.states[i] = ds.state()
	}
	e.present = append([]bool(nil), st.Present...)
	e.timeKeyed = true
	e.resetMemo()
	e.SeekRNG(st.RNGDraws)
	e.source.Bind(e)

	r := &eventRun{
		e:         e,
		started:   st.Started,
		now:       st.Now,
		seq:       st.Seq,
		tasks:     append([]model.Task(nil), st.Tasks...),
		cancelled: append([]bool{}, st.Cancelled...),
		inflight:  make(map[int]inflightInfo, len(st.Inflight)),
		revert:    make(map[int]inflightInfo, len(st.Revert)),
	}
	r.res = Result{
		Served:           st.Res.Served,
		Rejected:         st.Res.Rejected,
		Cancelled:        st.Res.Cancelled,
		PerDriverRevenue: make([]float64, len(e.Drivers)),
		PerDriverProfit:  make([]float64, len(e.Drivers)),
		PerDriverTasks:   make([]int, len(e.Drivers)),
		DriverPaths:      make([][]int, len(e.Drivers)),
		Assignment:       make(map[int]int, len(st.Res.Assignment)),
	}
	for ti, drv := range st.Res.Assignment {
		r.res.Assignment[ti] = drv
	}
	for i, p := range st.Res.DriverPaths {
		if p != nil {
			r.res.DriverPaths[i] = append([]int{}, p...)
		}
	}
	for _, info := range st.Inflight {
		r.inflight[info.Task] = inflightInfo{driver: info.Driver, prev: info.Prev.state(), arrival: info.Arrival, task: info.Task}
	}
	for _, info := range st.Revert {
		r.revert[info.Driver] = inflightInfo{driver: info.Driver, prev: info.Prev.state(), arrival: info.Arrival, task: info.Task}
	}
	r.q = make(eventQueue, len(st.Queue))
	for i, ev := range st.Queue {
		r.q[i] = event{key: ev.Key, kind: eventKind(ev.Kind), seq: ev.Seq, at: ev.At, idx: ev.Idx}
	}
	heap.Init(&r.q)

	strm := &Stream{e: e, r: r}
	if st.Batch != nil {
		b := newBatcher(r, window)
		b.batch = append(b.batch, st.Batch.Batch...)
		b.openedAt = st.Batch.OpenedAt
		b.cancelled = st.Batch.Cancelled
		if st.Batch.Open {
			b.closeAt = st.Batch.CloseAt
		}
		strm.b = b
	} else {
		r.d = d
		r.onArrival = r.instantArrival
	}
	return strm, nil
}
