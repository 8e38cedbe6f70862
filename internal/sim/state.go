package sim

import (
	"cmp"
	"fmt"
	"maps"
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
		States:    append([]DriverStateSnap{}, e.states...),
		Present:   append([]bool(nil), e.present...),
		RNGDraws:  e.RNGDraws(),
		Now:       r.now,
		Started:   r.started,
		Seq:       r.seq,
		Tasks:     append([]model.Task(nil), r.tasks...),
		Cancelled: append([]bool{}, r.cancelled...),
		Queue:     append([]EventSnap{}, r.q...),
		// Both come out of maps: order them by their keys, so the same
		// run always captures the same state.
		Inflight: slices.SortedFunc(maps.Values(r.inflight), func(a, b InflightSnap) int { return cmp.Compare(a.Task, b.Task) }),
		Revert:   slices.SortedFunc(maps.Values(r.revert), func(a, b InflightSnap) int { return cmp.Compare(a.Driver, b.Driver) }),
		Res: ResultSnap{
			Served:      r.res.Served,
			Rejected:    r.res.Rejected,
			Cancelled:   r.res.Cancelled,
			Assignment:  maps.Clone(r.res.Assignment),
			DriverPaths: clonePaths(r.res.DriverPaths),
		},
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

// clonePaths deep-copies per-driver task lists for a capture or a
// restore. It keeps nil-ness: a path emptied by a revoked assignment is
// empty but not nil, and stays so.
func clonePaths(paths [][]int) [][]int {
	out := make([][]int, len(paths))
	for i, p := range paths {
		out[i] = slices.Clone(p)
	}
	return out
}

// validate cross-checks the state's sizing and every index it holds, so
// a corrupted snapshot fails loudly here instead of as an index panic
// mid-replay.
func (st *StreamState) validate() error {
	n := len(st.Drivers)
	if len(st.States) != n || len(st.Present) != n || len(st.Res.DriverPaths) != n {
		return fmt.Errorf("sim: state sizing mismatch: %d drivers, %d states, %d present, %d paths",
			n, len(st.States), len(st.Present), len(st.Res.DriverPaths))
	}
	if len(st.Cancelled) != len(st.Tasks) {
		return fmt.Errorf("sim: state sizing mismatch: %d tasks, %d cancelled flags", len(st.Tasks), len(st.Cancelled))
	}
	task := func(ti int) bool { return ti >= 0 && ti < len(st.Tasks) }
	driver := func(i int) bool { return i >= 0 && i < n }
	for ti, drv := range st.Res.Assignment {
		if !task(ti) || !driver(drv) {
			return fmt.Errorf("sim: state assignment out of range: task %d -> driver %d", ti, drv)
		}
	}
	for _, ev := range st.Queue {
		var ok bool
		switch ev.Kind {
		case evArrival, evCancel:
			ok = task(ev.Idx)
		case evJoin, evRetire, evFree:
			ok = driver(ev.Idx)
		case evBatchClose, evReplan:
			ok = true
		default:
			return fmt.Errorf("sim: state queue holds unknown event kind %d", ev.Kind)
		}
		if !ok || ev.Seq >= st.Seq {
			return fmt.Errorf("sim: state queue event out of range: kind %d, index %d, seq %d of %d", ev.Kind, ev.Idx, ev.Seq, st.Seq)
		}
	}
	for _, info := range slices.Concat(st.Inflight, st.Revert) {
		if !task(info.Task) || !driver(info.Driver) {
			return fmt.Errorf("sim: state revocation out of range: task %d, driver %d", info.Task, info.Driver)
		}
	}
	tasks := slices.Concat(st.Res.DriverPaths...)
	if st.Batch != nil {
		tasks = append(tasks, st.Batch.Batch...)
	}
	for _, ti := range tasks {
		if !task(ti) {
			return fmt.Errorf("sim: state path or open batch holds unknown task %d", ti)
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
	e.states = slices.Clone(st.States)
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
		inflight:  make(map[int]InflightSnap, len(st.Inflight)),
		revert:    make(map[int]InflightSnap, len(st.Revert)),
		res:       newResult(e),
		q:         slices.Clone(st.Queue),
	}
	r.res.Served, r.res.Rejected, r.res.Cancelled = st.Res.Served, st.Res.Rejected, st.Res.Cancelled
	maps.Copy(r.res.Assignment, st.Res.Assignment)
	r.res.DriverPaths = clonePaths(st.Res.DriverPaths)
	for _, info := range st.Inflight {
		r.inflight[info.Task] = info
	}
	for _, info := range st.Revert {
		r.revert[info.Driver] = info
	}
	r.init()

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
