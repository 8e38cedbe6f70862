package dispatch

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/wal"
)

// This file is the durable rail: a service built WithDurability journals
// every externally-injected mutation — task submissions, cancellations,
// driver joins and retirements, wall-clock batch-window ticks, and the
// final settlement — to an append-only, checksummed write-ahead log
// BEFORE applying it, and cuts a full-state snapshot every N records so
// recovery replays a bounded suffix. Because the service is
// deterministic (same inputs in the same order produce bit-identical
// outcomes — the differential tests of this package hold that), the log
// records validated inputs, not outcomes: dispatch.Restore rebuilds the
// newest snapshot and re-drives the record suffix through the normal
// code paths, arriving at the exact served/rejected/revenue/books of
// the crashed process. The genesis record carries the market and a
// config fingerprint, so a log is self-contained: Restore takes only
// the directory.
//
// Record and snapshot payloads are the fixed-width binary layout of
// codec.go (DESIGN.md tabulates it); internal/wal frames and checksums
// them. Every payload also carries the service's rolling digest of the
// decisions made so far, so a replay that decides differently from the
// run that wrote the log fails at the first record where the two part
// (ErrReplayDiverged) instead of restoring different books.
//
// What is NOT journaled, by design: shed submissions (they error before
// the journal point and register nothing — Stats.Shed restores only as
// of the last snapshot), feed subscriptions (live connections die with
// the process), and pacing clocks (wall-clock artifacts; a restored
// service runs the default clock until the caller re-paces it).

// Record kinds. On the wire a record starts with rec2Base+kind.
const (
	recInit      byte = 1 // genesis: market + config fingerprint
	recSubmit    byte = 2 // SubmitTask (admitted)
	recCancel    byte = 3 // CancelTask
	recAddDriver byte = 4 // AddDriver (new or re-entering)
	recRetire    byte = 5 // RetireDriver
	recAdvance   byte = 6 // wall-clock batch-window close tick
	recFinish    byte = 7 // Close: the day settled
)

// walRecord is one journaled mutation; which fields are meaningful
// depends on Kind.
type walRecord struct {
	Kind byte
	// Digest is the service's decision digest at the journal point:
	// after every earlier record was applied, before this one is.
	Digest uint64
	Init   *initRecord // recInit
	Task   Task        // recSubmit
	Driver Driver      // recAddDriver
	ID     int         // recCancel (task), recRetire (driver)
	At     float64     // recCancel, recRetire, recAdvance
}

// configFingerprint is the durable image of a service's configuration:
// everything that shapes outcomes, nothing that doesn't (pacing clocks,
// feed buffers). Restore rebuilds the service from it and the journaled
// inputs then replay bit-identically.
type configFingerprint struct {
	Policy string
	// MatchWorkers is a wire slot no build consults any more: logs from
	// builds that had a window worker pool carry its size here, this
	// build writes 0, and the decoder keeps what it read so a payload
	// re-encodes to its own bytes.
	MatchWorkers int
	RealTime     bool
	Seed         int64
	Strict       bool
	BatchWindow  float64
	// BatchAlgo names the window solver of a batched market: this build
	// writes "hungarian" (and "" on an instant market), the only one it
	// has; a log naming "auction" is refused (errAuctionLog).
	BatchAlgo  string
	MaxPending int
	// RoadNetwork, when present, is the normalized street-graph metric
	// configuration; Restore rebuilds the identical seeded graph and
	// router from it. A caller-supplied WithDistanceFunc has no durable
	// image and is rejected at construction instead.
	RoadNetwork *RoadNetwork
}

func fingerprint(c config) configFingerprint {
	fp := configFingerprint{
		Policy:      c.policy.String(),
		RealTime:    c.realTime,
		Seed:        c.seed,
		Strict:      c.strict,
		BatchWindow: c.batchWindow,
		MaxPending:  c.maxPending,
	}
	if c.batchWindow > 0 {
		fp.BatchAlgo = Hungarian.String()
	}
	if c.roadnet != nil {
		rn := *c.roadnet
		fp.RoadNetwork = &rn
	}
	return fp
}

// errAuctionLog refuses a log or snapshot whose fingerprint names the
// ε-auction window solver, which this build does not have: replaying it
// under the Hungarian solve would fail the per-record digest at the
// first window the two decide differently, so Restore says so up front
// instead of falling back.
var errAuctionLog = errors.New("the log was written by a batched(auction) market and this build has no auction window solver; commit 818a72e is the last build that reads it, and there is no conversion — drain the day there and start a fresh log")

// options converts the fingerprint back into constructor options.
func (fp configFingerprint) options() ([]Option, error) {
	pol, err := ParsePolicy(fp.Policy)
	if err != nil {
		return nil, fmt.Errorf("dispatch: restoring config: %w", err)
	}
	opts := []Option{WithDispatcher(pol), WithSeed(fp.Seed)}
	if fp.RealTime {
		opts = append(opts, WithRealTime())
	}
	if fp.Strict {
		opts = append(opts, WithStrictTimes())
	}
	if fp.BatchWindow > 0 {
		switch fp.BatchAlgo {
		case Hungarian.String():
		case "auction":
			return nil, fmt.Errorf("dispatch: restoring config: %w", errAuctionLog)
		default:
			return nil, fmt.Errorf("dispatch: restoring config: %w: unknown batch algorithm %q", ErrInvalidOption, fp.BatchAlgo)
		}
		opts = append(opts, WithBatching(fp.BatchWindow, Hungarian))
	}
	if fp.MaxPending > 0 {
		opts = append(opts, WithMaxPending(fp.MaxPending))
	}
	if fp.RoadNetwork != nil {
		opts = append(opts, WithRoadNetwork(*fp.RoadNetwork))
	}
	return opts, nil
}

// initRecord is the genesis record's body: everything Restore needs to
// reconstruct the service before replaying a single mutation.
type initRecord struct {
	Version int
	Market  Market
	Config  configFingerprint
}

// snapPayload is a snapshot file's body: the engine's captured stream
// state plus the service-level books. The fleet is in State and nowhere
// else — driver and task IDs are the IDs of State.Drivers and
// State.Tasks, index for index — and the market constants and config
// fingerprint ride along so a snapshot stays usable after the segment
// holding the genesis record is pruned.
type snapPayload struct {
	Version  int
	Digest   uint64  // decision digest as of the snapshot's LSN
	SpeedKmh float64 // Market.SpeedKmh
	GasPerKm float64 // Market.GasPerKm
	Config   configFingerprint
	State    *sim.StreamState
	Retired  []int              // public driver IDs retired, ascending
	Decided  map[int]Assignment // by task ID; each entry's TaskID is its key
	Shed     int64
}

// durConfig carries WithDurability's knobs.
type durConfig struct {
	fsync         wal.FsyncPolicy
	syncInterval  time.Duration
	segmentBytes  int64
	snapshotEvery int
	keepSnapshots int
}

func defaultDurConfig() durConfig {
	return durConfig{fsync: wal.FsyncAlways, snapshotEvery: 4096}
}

func (dc durConfig) walOptions() wal.Options {
	return wal.Options{
		Fsync:         dc.fsync,
		SyncInterval:  dc.syncInterval,
		SegmentBytes:  dc.segmentBytes,
		KeepSnapshots: dc.keepSnapshots,
	}
}

// DurOption tunes the durable rail inside WithDurability (and the
// reopened log inside Restore).
type DurOption func(*durConfig) error

// DurFsync selects when journal appends are forced to stable storage:
// "always" (every record synced before the mutation is acknowledged —
// the default, and the only policy under which a machine crash loses
// nothing), "interval" (records reach the file descriptor immediately,
// so a process kill loses nothing, and are fsynced on a timer — a
// machine crash loses at most the last interval), or "off" (the OS page
// cache decides; rotation, snapshots and shutdown still sync).
func DurFsync(mode string) DurOption {
	return func(dc *durConfig) error {
		p, err := wal.ParseFsyncPolicy(mode)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOption, err)
		}
		dc.fsync = p
		return nil
	}
}

// DurSyncInterval sets the "interval" policy's fsync period; the
// default is 100ms. It must be positive.
func DurSyncInterval(d time.Duration) DurOption {
	return func(dc *durConfig) error {
		if d <= 0 {
			return fmt.Errorf("%w: sync interval %v, want > 0", ErrInvalidOption, d)
		}
		dc.syncInterval = d
		return nil
	}
}

// DurSegmentBytes rotates log segments at roughly this size; the
// default is 64 MiB. It must be positive.
func DurSegmentBytes(n int64) DurOption {
	return func(dc *durConfig) error {
		if n <= 0 {
			return fmt.Errorf("%w: segment bytes %d, want > 0", ErrInvalidOption, n)
		}
		dc.segmentBytes = n
		return nil
	}
}

// DurSnapshotEvery cuts a full-state snapshot every n journaled records
// (default 4096), bounding crash recovery to replaying at most n
// records. It must be positive.
func DurSnapshotEvery(n int) DurOption {
	return func(dc *durConfig) error {
		if n < 1 {
			return fmt.Errorf("%w: snapshot every %d records, want ≥ 1", ErrInvalidOption, n)
		}
		dc.snapshotEvery = n
		return nil
	}
}

// DurKeepSnapshots retains the newest n snapshot files (default 2);
// older snapshots and the segments they fully cover are pruned.
func DurKeepSnapshots(n int) DurOption {
	return func(dc *durConfig) error {
		if n < 1 {
			return fmt.Errorf("%w: keep snapshots %d, want ≥ 1", ErrInvalidOption, n)
		}
		dc.keepSnapshots = n
		return nil
	}
}

// WithDurability journals the service to a write-ahead log in dir
// (created if missing; it must not already hold a log — recover an
// existing log with Restore). Every mutation is journaled before it is
// applied, under the DurFsync policy; periodic snapshots
// (DurSnapshotEvery) bound how much log a recovery replays.
func WithDurability(dir string, opts ...DurOption) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("%w: durability directory must be non-empty", ErrInvalidOption)
		}
		dc := defaultDurConfig()
		for _, o := range opts {
			if err := o(&dc); err != nil {
				return err
			}
		}
		c.durDir = dir
		c.dur = dc
		return nil
	}
}

// journal is a Service's handle on its write-ahead log.
type journal struct {
	lg            *wal.Log
	snapshotEvery int
	sinceSnap     int // records appended since the last snapshot
	// buf and snapBuf are the record and snapshot encoders' reused
	// output buffers: a steady-state append allocates nothing.
	buf           []byte
	snapBuf       []byte
	retired, keys []int // a cut's sort scratch (sortedKeys)
}

// openJournal creates the service's write-ahead log and appends the
// genesis record. Called by New, before any traffic.
func (s *Service) openJournal(m Market) error {
	lg, err := wal.Create(s.cfg.durDir, s.cfg.dur.walOptions())
	if err != nil {
		return err
	}
	genesis := walRecord{Kind: recInit, Digest: s.digest,
		Init: &initRecord{Version: durVersion, Market: m, Config: fingerprint(s.cfg)}}
	if _, err := lg.Append(appendRecord(nil, &genesis)); err != nil {
		lg.Close()
		return err
	}
	s.jr = &journal{lg: lg, snapshotEvery: s.cfg.dur.snapshotEvery, sinceSnap: 1}
	return nil
}

// journal appends one mutation record, cutting a snapshot first when
// the cadence is due (the snapshot then covers exactly the records
// already applied). No-op on in-memory services. A journal error means
// the mutation was NOT made durable; callers refuse the mutation. Must
// be called with the mutex held, after validation and before applying.
func (s *Service) journal(rec walRecord) error {
	if s.jr == nil {
		return nil
	}
	if s.jr.sinceSnap >= s.jr.snapshotEvery {
		if err := s.writeSnapshot(); err != nil {
			return err
		}
	}
	rec.Digest = s.digest
	s.jr.buf = appendRecord(s.jr.buf[:0], &rec)
	if _, err := s.jr.lg.Append(s.jr.buf); err != nil {
		return fmt.Errorf("dispatch: journaling: %w", err)
	}
	s.jr.sinceSnap++
	return nil
}

// captureSnapshot gathers the full service state — engine stream plus
// service-level books — as a view: State and Decided are the live run's,
// so encode it before releasing the mutex. Retired goes into *retired.
func (s *Service) captureSnapshot(retired *[]int) (snapPayload, error) {
	st, err := s.st.CaptureState()
	if err != nil {
		return snapPayload{}, simErr(err)
	}
	mkt := s.st.Engine().Market
	snap := snapPayload{
		Version:  durVersion,
		Digest:   s.digest,
		SpeedKmh: mkt.SpeedKmh,
		GasPerKm: mkt.GasPerKm,
		Config:   fingerprint(s.cfg),
		State:    st,
		Retired:  sortedKeys(retired, s.retired),
		Decided:  s.decided,
		Shed:     s.shed.Load(),
	}
	return snap, nil
}

// writeSnapshot cuts a snapshot file covering every record appended so
// far. Must be called with the mutex held.
func (s *Service) writeSnapshot() error {
	snap, err := s.captureSnapshot(&s.jr.retired)
	if err != nil {
		return err
	}
	s.jr.snapBuf = appendSnapshot(s.jr.snapBuf[:0], &snap, &s.jr.keys)
	if err := s.jr.lg.WriteSnapshot(s.jr.snapBuf); err != nil {
		return fmt.Errorf("dispatch: writing snapshot: %w", err)
	}
	s.jr.sinceSnap = 0
	return nil
}

// journalFinish persists the durable shutdown: a final snapshot of the
// pre-settlement state, the finish record, and a sync of the tail
// whatever the fsync policy. Called by Close with the mutex held.
func (s *Service) journalFinish() error {
	if s.jr == nil {
		return nil
	}
	err := s.writeSnapshot()
	finish := walRecord{Kind: recFinish, Digest: s.digest}
	s.jr.buf = appendRecord(s.jr.buf[:0], &finish)
	if _, aerr := s.jr.lg.Append(s.jr.buf); aerr != nil && err == nil {
		err = fmt.Errorf("dispatch: journaling finish: %w", aerr)
	}
	if serr := s.jr.lg.Sync(); serr != nil && err == nil {
		err = fmt.Errorf("dispatch: syncing journal: %w", serr)
	}
	return err
}

// closeJournal closes the log, folding jerr (an earlier journal error
// from the shutdown path) in front of any close error.
func (s *Service) closeJournal(jerr error) error {
	if s.jr == nil {
		return jerr
	}
	cerr := s.jr.lg.Close()
	s.jr = nil
	if jerr != nil {
		return jerr
	}
	return cerr
}

// ErrReplayDiverged: while restoring, the decisions replayed from the
// log stopped matching the decisions of the run that wrote it — this
// build dispatches differently (a changed float expression, a changed
// policy), or a record was altered in a way its checksum missed. The
// error Restore returns is a *ReplayDivergedError carrying the LSN.
var ErrReplayDiverged = errors.New("dispatch: replay diverged from the journaled run")

// ReplayDivergedError names the first record whose journaled decision
// digest the replay failed to reproduce. The decision that went wrong
// was made while applying an earlier record, at or after the previous
// digest that matched. It matches ErrReplayDiverged under errors.Is.
type ReplayDivergedError struct {
	LSN      uint64 // first record whose digest mismatched
	Logged   uint64 // digest the record carries
	Replayed uint64 // digest the replay had reached
}

func (e *ReplayDivergedError) Error() string {
	return fmt.Sprintf("%v: record %d carries decision digest %016x, replay reached %016x",
		ErrReplayDiverged, e.LSN, e.Logged, e.Replayed)
}

func (e *ReplayDivergedError) Unwrap() error { return ErrReplayDiverged }

// RepairLog truncates the damaged final record off the log in dir — the
// record for which Restore returns ErrLogCorruptTail — and returns the
// number of bytes it dropped. Restore then resumes the run as it stood
// before that record: the one input it journaled is lost. A log that
// Restore accepts is left as it is (0, nil); a log damaged before its
// final record is refused with ErrLogCorrupt and not touched.
func RepairLog(dir string) (truncated int64, err error) {
	return wal.Repair(dir)
}

// Restore rebuilds a durable service from the write-ahead log in dir:
// it loads the newest valid snapshot (or the genesis record), replays
// the record suffix through the normal dispatch paths — arriving at
// exactly the crashed process's served/rejected/revenue/books, the
// determinism the differential crash tests in this package prove — and
// reopens the log for appending, so the restored service is durable in
// turn. DurOptions tune the reopened log (fsync policy, cadence); the
// market and dispatch configuration come from the log itself and are
// not overridable. A directory with no log surfaces ErrLogNotFound. A
// torn tail (crash mid-append) is truncated away; a complete final
// record failing its checksum surfaces ErrLogCorruptTail; deeper
// corruption surfaces ErrLogCorrupt; a replay whose decisions part from
// the journaled run's surfaces ErrReplayDiverged. If the log ends in a
// finish record the day is settled: the service is returned already
// closed, answering Snapshot and Decision but no mutations.
func Restore(dir string, opts ...DurOption) (*Service, error) {
	dc := defaultDurConfig()
	for _, o := range opts {
		if err := o(&dc); err != nil {
			return nil, err
		}
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		return nil, err
	}

	var snap *snapPayload
	var market Market
	var fp configFingerprint
	records := rec.Records
	if rec.Snapshot != nil {
		snap, err = decodeSnapshot(rec.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("dispatch: decoding snapshot: %w", err)
		}
		market = Market{SpeedKmh: snap.SpeedKmh, GasPerKm: snap.GasPerKm}
		fp = snap.Config
	} else {
		if len(records) == 0 {
			return nil, fmt.Errorf("%w: log holds no genesis record", wal.ErrCorrupt)
		}
		genesis, derr := decodeRecord(records[0].Data)
		if genesis.Kind != recInit {
			return nil, fmt.Errorf("%w: log does not start with a genesis record", wal.ErrCorrupt)
		}
		if derr != nil {
			return nil, fmt.Errorf("dispatch: decoding genesis record: %w", derr)
		}
		market, fp = genesis.Init.Market, genesis.Init.Config
		records = records[1:]
	}

	fpOpts, err := fp.options()
	if err != nil {
		return nil, err
	}
	svc, err := New(market, fpOpts...)
	if err != nil {
		return nil, fmt.Errorf("dispatch: rebuilding service from log: %w", err)
	}
	// Replay must be driven purely by journaled timestamps: suppress the
	// wall-clock window timer until the log is drained.
	liveBatch := svc.liveBatch
	svc.liveBatch = false

	if snap != nil {
		if err := svc.loadSnapshot(snap); err != nil {
			return nil, err
		}
	}
	finished := false
	for _, r := range records {
		done, rerr := svc.replayRecord(r)
		if rerr != nil {
			return nil, fmt.Errorf("dispatch: replaying record %d: %w", r.LSN, rerr)
		}
		if done {
			finished = true
			break
		}
	}
	if finished {
		// The day is settled; the log needs no reopening and accepts no
		// further records.
		return svc, nil
	}

	lg, err := rec.Open(dc.walOptions())
	if err != nil {
		return nil, err
	}
	svc.mu.Lock()
	svc.cfg.durDir = dir
	svc.cfg.dur = dc
	svc.jr = &journal{
		lg:            lg,
		snapshotEvery: dc.snapshotEvery,
		sinceSnap:     int(rec.NextLSN - rec.SnapshotLSN),
	}
	svc.liveBatch = liveBatch
	svc.armBatchTimer()
	svc.mu.Unlock()
	return svc, nil
}

// loadSnapshot swaps the freshly-constructed service's stream and books
// for the snapshot's captured state, which it adopts.
func (svc *Service) loadSnapshot(snap *snapPayload) error {
	eng := svc.st.Engine()
	var d sim.Dispatcher
	if snap.Config.BatchWindow == 0 {
		pol, err := ParsePolicy(snap.Config.Policy)
		if err != nil {
			return err
		}
		d, err = pol.dispatcher()
		if err != nil {
			return err
		}
	}
	strm, err := eng.RestoreStream(snap.State, d, snap.Config.BatchWindow)
	if err != nil {
		return fmt.Errorf("dispatch: restoring stream state: %w", err)
	}
	if svc.batched {
		strm.SetDecisionHandler(svc.onWindowDecision)
		strm.SetBatchCloseHandler(svc.onWindowClosed)
	}
	svc.st = strm

	svc.driverIDs = make([]int, len(snap.State.Drivers))
	svc.drivers = newDriverTable(len(snap.State.Drivers))
	for idx := range snap.State.Drivers {
		id := snap.State.Drivers[idx].ID
		if _, dup := svc.drivers.get(id); dup {
			return fmt.Errorf("dispatch: snapshot registers driver %d twice", id)
		}
		svc.drivers.put(id, idx)
		svc.driverIDs[idx] = id
	}
	svc.retired = make(map[int]bool, len(snap.Retired))
	for _, id := range snap.Retired {
		svc.retired[id] = true
	}
	svc.taskIDs = make([]int, len(snap.State.Tasks))
	svc.tasks = make(map[int]int, len(snap.State.Tasks))
	for idx := range snap.State.Tasks {
		id := snap.State.Tasks[idx].ID
		if _, dup := svc.tasks[id]; dup {
			return fmt.Errorf("dispatch: snapshot registers task %d twice", id)
		}
		svc.tasks[id] = idx
		svc.taskIDs[idx] = id
	}
	svc.decided = snap.Decided
	svc.shed.Store(snap.Shed)
	svc.digest = snap.Digest
	return nil
}

// replayRecord re-drives one journaled mutation through the service's
// normal paths, after checking that the replay so far decided what the
// journaled run decided. Returns done=true on the finish record.
func (svc *Service) replayRecord(r wal.Record) (done bool, err error) {
	rec, err := decodeRecord(r.Data)
	if err != nil {
		return false, err
	}
	if rec.Digest != svc.digest {
		return false, &ReplayDivergedError{LSN: r.LSN, Logged: rec.Digest, Replayed: svc.digest}
	}
	ctx := context.Background()
	switch rec.Kind {
	case recInit:
		// A genesis record after the start means the suffix overlaps the
		// snapshot boundary incorrectly.
		return false, fmt.Errorf("unexpected genesis record mid-log")
	case recSubmit:
		_, err = svc.SubmitTask(ctx, rec.Task)
	case recCancel:
		_, err = svc.CancelTask(ctx, rec.ID, rec.At)
	case recAddDriver:
		err = svc.AddDriver(ctx, rec.Driver)
	case recRetire:
		err = svc.RetireDriver(ctx, rec.ID, rec.At)
	case recAdvance:
		err = svc.replayAdvance(rec.At)
	case recFinish:
		_, err = svc.Close()
		return true, err
	}
	// Replay of an admitted mutation can only fail if the log and the
	// code disagree (version skew, corruption the checksum missed).
	// ErrOverloaded cannot happen: shed submissions were never journaled
	// and admission is deterministic.
	return false, err
}

// replayAdvance re-applies a journaled wall-clock window tick.
func (svc *Service) replayAdvance(at float64) error {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.closed {
		return errClosed()
	}
	if err := svc.st.AdvanceTo(at); err != nil {
		return simErr(err)
	}
	return nil
}
