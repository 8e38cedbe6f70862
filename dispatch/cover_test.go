package dispatch

// Branch-coverage companions to the behavioral suites: the option and
// policy vocabulary, the journal-failure refusal contract (a mutation
// the log cannot persist must not be applied), Restore's rejection of
// malformed logs, and the wall-clock window tick's journal/replay path.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/wal"
)

func TestPolicyAndAlgoVocabulary(t *testing.T) {
	if got := Policy(99).String(); got != "Policy(99)" {
		t.Fatalf("Policy(99).String() = %q", got)
	}
	if got := BatchAlgorithm(7).String(); got != "BatchAlgorithm(7)" {
		t.Fatalf("BatchAlgorithm(7).String() = %q", got)
	}
	for _, name := range []string{"maxmargin", "nearest", "random"} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("ParsePolicy(%q).String() = %q", name, p.String())
		}
	}
	if _, err := ParsePolicy("bogus"); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("ParsePolicy(bogus): err = %v, want ErrInvalidOption", err)
	}
	if _, err := New(overloadMarket(), WithDispatcher(Policy(99))); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("WithDispatcher(Policy(99)): err = %v, want ErrInvalidOption", err)
	}
}

func TestScaledClockAdvance(t *testing.T) {
	start := time.Now()
	ScaledClock(1e9).Advance(0, 5) // 5 market seconds at a billion-fold speedup
	ScaledClock(-1).Advance(2, 2)  // factor ≤ 0 falls back to real time; zero span
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("scaled advances took %v", el)
	}
}

func TestSimErrVocabulary(t *testing.T) {
	if err := simErr(fmt.Errorf("stream: %w", sim.ErrFinished)); !errors.Is(err, ErrFinished) {
		t.Fatalf("simErr(ErrFinished) = %v, want ErrFinished", err)
	}
	plain := errors.New("disk on fire")
	if err := simErr(plain); err != plain {
		t.Fatalf("simErr(plain) = %v, want passthrough", err)
	}
}

func TestMarketOverridesAndInvalidSpeed(t *testing.T) {
	m := overloadMarket()
	m.GasPerKm = 0.5
	m.Drivers[1].JoinAt = 10 // initial-fleet scheduled join
	svc, err := New(m)
	if err != nil {
		t.Fatalf("New with GasPerKm override: %v", err)
	}
	svc.Close()

	bad := overloadMarket()
	bad.SpeedKmh = -4
	if _, err := New(bad); !errors.Is(err, ErrInvalidDriver) {
		t.Fatalf("New with negative speed: err = %v, want ErrInvalidDriver", err)
	}
	// A non-finite constant fails every ordered test a rejection could be
	// written as; +Inf speed would make every pickup instant.
	for _, c := range []struct {
		name       string
		speed, gas float64
	}{
		{"+Inf speed", math.Inf(1), 0},
		{"NaN speed", math.NaN(), 0},
		{"NaN gas", 0, math.NaN()},
		{"+Inf gas", 0, math.Inf(1)},
	} {
		bad := overloadMarket()
		bad.SpeedKmh, bad.GasPerKm = c.speed, c.gas
		if svc, err := New(bad); !errors.Is(err, ErrInvalidDriver) {
			if err == nil {
				svc.Close()
			}
			t.Errorf("New with %s: err = %v, want ErrInvalidDriver", c.name, err)
		}
	}
}

func TestCanceledContextRefusesCalls(t *testing.T) {
	svc, err := New(overloadMarket())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Decision(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Decision: err = %v", err)
	}
	if err := svc.AddDriver(ctx, Driver{ID: 500}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AddDriver: err = %v", err)
	}
	if err := svc.RetireDriver(ctx, 100, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("RetireDriver: err = %v", err)
	}
	if _, err := svc.CancelTask(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("CancelTask: err = %v", err)
	}
	if _, err := svc.Snapshot(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Snapshot: err = %v", err)
	}
}

func TestStrictTimeOrderingAcrossMutators(t *testing.T) {
	svc, err := New(overloadMarket(), WithStrictTimes())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.SubmitTask(ctx, overloadTask(0, 100)); err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	base := Point{Lat: 41.15, Lon: -8.61}
	late := Driver{ID: 500, Source: base, Dest: Point{Lat: base.Lat + 0.02, Lon: base.Lon + 0.02},
		Start: 0, End: 7200, JoinAt: 50}
	if err := svc.AddDriver(ctx, late); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("AddDriver in the past: err = %v, want ErrOutOfOrder", err)
	}
	if err := svc.RetireDriver(ctx, 100, 50); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("RetireDriver in the past: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := svc.CancelTask(ctx, 0, 50); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("CancelTask in the past: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := svc.CancelTask(ctx, 0, 100); !errors.Is(err, ErrInvalidCancel) {
		t.Fatalf("CancelTask at publish: err = %v, want ErrInvalidCancel", err)
	}
}

func TestAddDriverJoinEdges(t *testing.T) {
	svc, err := New(overloadMarket())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	ctx := context.Background()
	base := Point{Lat: 41.15, Lon: -8.61}
	dest := Point{Lat: base.Lat + 0.02, Lon: base.Lon + 0.02}
	// JoinAt 0 means "now".
	if err := svc.AddDriver(ctx, Driver{ID: 600, Source: base, Dest: dest, Start: 0, End: 7200}); err != nil {
		t.Fatalf("AddDriver(now): %v", err)
	}
	// A negative JoinAt is clamped to now for scheduling but still fails
	// driver validation.
	if err := svc.AddDriver(ctx, Driver{ID: 601, Source: base, Dest: dest,
		Start: 0, End: 7200, JoinAt: -3}); !errors.Is(err, ErrInvalidDriver) {
		t.Fatalf("AddDriver(JoinAt<0): err = %v, want ErrInvalidDriver", err)
	}
}

// TestAddDriverPolewardOfFleet: a service opened over an empty fleet
// lays its candidate index out over the Porto box, whose longitude
// scale overstates east-west distances in Helsinki by half. A driver
// announced there 30 km east of a pickup with a 33 km budget can make
// it, and must be found — by the service every caller gets, with no
// option naming a candidate source.
func TestAddDriverPolewardOfFleet(t *testing.T) {
	svc, err := New(Market{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	ctx := context.Background()
	home := Point{Lat: 60.17, Lon: 25.48}
	if err := svc.AddDriver(ctx, Driver{ID: 1, Source: home, Dest: home, Start: 0, End: 86400}); err != nil {
		t.Fatalf("AddDriver: %v", err)
	}
	pickup := Point{Lat: 60.17, Lon: 24.94}
	const budget = 33.0 / 30 * 3600 // seconds to cover 33 km at the market's 30 km/h
	a, err := svc.SubmitTask(ctx, Task{ID: 1, Publish: 10, Source: pickup, Dest: Point{Lat: 60.2, Lon: 24.9},
		StartBy: 10 + budget, EndBy: 10 + budget + 3600, Price: 500, WTP: 600})
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if !a.Assigned || a.DriverID != 1 {
		t.Fatalf("the driver 30 km from a pickup with a 33 km budget was not found: %+v", a)
	}
}

// TestNewPrunesCandidatesByDefault: a bare New binds the indexed
// candidate source — an order is scored against the drivers who could
// reach it, not against the fleet. Seen from outside through the metric:
// from the first decision on, the distance from a driver a day's drive
// away is never asked for. (Binding the index takes every driver's way
// home once, hers too; that is set-up, and not counted.)
func TestNewPrunesCandidatesByDefault(t *testing.T) {
	near := Point{Lat: 41.15, Lon: -8.61}
	far := Point{Lat: 45.5, Lon: -8.61} // ~480 km north
	var farCalls, calls atomic.Int64
	crowFly := func(a, b Point) float64 {
		calls.Add(1)
		if a == far || b == far {
			farCalls.Add(1)
		}
		return geo.Equirectangular(geo.Point(a), geo.Point(b))
	}
	svc, err := New(Market{Drivers: []Driver{
		{ID: 1, Source: near, Dest: near, Start: 0, End: 86400},
		{ID: 2, Source: far, Dest: far, Start: 0, End: 86400},
	}}, WithDistanceFunc(crowFly))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	if calls.Load() != 2 || farCalls.Load() != 1 {
		t.Fatalf("New measured %d distances, %d of them the far driver's; want each driver's way home once", calls.Load(), farCalls.Load())
	}
	calls.Store(0)
	farCalls.Store(0)
	a, err := svc.SubmitTask(context.Background(), Task{ID: 1, Publish: 10,
		Source: Point{Lat: 41.16, Lon: -8.6}, Dest: Point{Lat: 41.18, Lon: -8.58},
		StartBy: 610, EndBy: 4000, Price: 50, WTP: 60})
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if !a.Assigned || a.DriverID != 1 || calls.Load() == 0 {
		t.Fatalf("the near driver did not take the order through the metric: %+v after %d calls", a, calls.Load())
	}
	if n := farCalls.Load(); n != 0 {
		t.Fatalf("%d distances were computed for a driver 480 km from the pickup: the service is scanning its fleet", n)
	}
}

func TestSubscribeLifecycleEdges(t *testing.T) {
	svc, err := New(overloadMarket())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ch, cancel := svc.Subscribe(0) // buffer ≤ 0 selects the default
	cancel()
	cancel() // idempotent
	if _, open := <-ch; open {
		t.Fatal("cancelled subscription left its channel open")
	}
	svc.Close()
	ch2, cancel2 := svc.Subscribe(4)
	if _, open := <-ch2; open {
		t.Fatal("subscription on a closed service must be born closed")
	}
	cancel2()
}

// TestJournalSnapshotFailureRefusesMutations deletes the log directory
// out from under a durable service whose snapshot cadence forces a
// snapshot before every append: each mutation's journal write fails, so
// the mutation must be refused — and must not have been applied.
func TestJournalSnapshotFailureRefusesMutations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	svc, err := New(overloadMarket(),
		WithDurability(dir, DurFsync("off"), DurSnapshotEvery(1)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := svc.SubmitTask(ctx, overloadTask(0, 0)); err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if err := svc.RetireDriver(ctx, 103, 0.5); err != nil {
		t.Fatalf("RetireDriver: %v", err)
	}
	if _, err := svc.SubmitTask(ctx, overloadTask(1, 2)); err != nil {
		t.Fatalf("SubmitTask past the retirement: %v", err)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatalf("RemoveAll: %v", err)
	}
	if _, err := svc.SubmitTask(ctx, overloadTask(2, 3)); err == nil {
		t.Fatal("SubmitTask succeeded with the log gone")
	}
	if _, err := svc.Decision(ctx, 2); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("refused submission was registered anyway: %v", err)
	}
	base := Point{Lat: 41.15, Lon: -8.61}
	dest := Point{Lat: base.Lat + 0.02, Lon: base.Lon + 0.02}
	if err := svc.AddDriver(ctx, Driver{ID: 700, Source: base, Dest: dest, Start: 0, End: 7200, JoinAt: 3}); err == nil {
		t.Fatal("AddDriver succeeded with the log gone")
	}
	// The re-entry path journals too.
	if err := svc.AddDriver(ctx, Driver{ID: 103, Source: base, Dest: dest, Start: 0, End: 7200, JoinAt: 3}); err == nil {
		t.Fatal("rejoin succeeded with the log gone")
	}
	if err := svc.RetireDriver(ctx, 100, 3); err == nil {
		t.Fatal("RetireDriver succeeded with the log gone")
	}
	if _, err := svc.CancelTask(ctx, 0, 3); err == nil {
		t.Fatal("CancelTask succeeded with the log gone")
	}
	// Shutdown still settles the books, but reports the journal loss.
	if _, err := svc.Close(); err == nil {
		t.Fatal("Close reported no error for an unwritable final snapshot")
	}
}

// TestJournalAppendFailureRefusesMutations is the same drill through
// the append path: a tiny segment size forces a rotation (a new file in
// the deleted directory) on the next record.
func TestJournalAppendFailureRefusesMutations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	svc, err := New(overloadMarket(),
		WithDurability(dir, DurFsync("off"), DurSegmentBytes(64)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := svc.SubmitTask(ctx, overloadTask(0, 0)); err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatalf("RemoveAll: %v", err)
	}
	if _, err := svc.SubmitTask(ctx, overloadTask(1, 1)); err == nil {
		t.Fatal("SubmitTask succeeded with the log gone")
	}
	svc.Close()
}

// mkRawLog writes a hand-crafted log: the given record payloads in
// order, then optionally a snapshot covering them.
func mkRawLog(t *testing.T, records [][]byte, snapshot []byte) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	lg, err := wal.Create(dir, wal.Options{Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatalf("wal.Create: %v", err)
	}
	for i, r := range records {
		if _, err := lg.Append(r); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if snapshot != nil {
		if err := lg.WriteSnapshot(snapshot); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// mustRecord encodes a version-2 record. Its digest stays zero, which is
// what a replay has reached until the first decision is made.
func mustRecord(rec walRecord) []byte { return appendRecord(nil, &rec) }

func mkGenesis(version int, m Market, fp configFingerprint) []byte {
	return mustRecord(walRecord{Kind: recInit, Init: &initRecord{Version: version, Market: m, Config: fp}})
}

// A genesis record and a snapshot as the version-1 builds wrote them:
// a bare kind byte then JSON, and bare JSON.
var (
	v1Genesis  = append([]byte{recInit}, `{"version":1,"market":{"speed_kmh":30,"gas_per_km":0.09},"config":{"policy":"maxmargin","seed":1}}`...)
	v1Snapshot = []byte(`{"version":1,"init":{"version":1},"state":{"drivers":[]}}`)
)

// liveSnapshot runs a small durable market (instant unless opts say
// otherwise) that cuts a snapshot before every record, halts it, and
// returns the newest snapshot decoded.
func liveSnapshot(t *testing.T, opts ...Option) *snapPayload {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	svc, err := New(overloadMarket(),
		append(opts, WithDurability(dir, DurFsync("off"), DurSnapshotEvery(1)))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := svc.SubmitTask(ctx, overloadTask(i, float64(i))); err != nil {
			t.Fatalf("SubmitTask(%d): %v", i, err)
		}
	}
	if _, err := svc.Halt(); err != nil {
		t.Fatalf("Halt: %v", err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Snapshot == nil {
		t.Fatal("no snapshot despite DurSnapshotEvery(1)")
	}
	snap, err := decodeSnapshot(rec.Snapshot)
	if err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	if len(snap.State.Tasks) == 0 {
		t.Fatal("snapshot registered no tasks")
	}
	return snap
}

func TestRestoreRejectsMalformedLogs(t *testing.T) {
	fp := fingerprint(config{policy: MaxMargin, seed: 1})
	genesis := mkGenesis(durVersion, overloadMarket(), fp)
	live := liveSnapshot(t)
	good := appendSnapshot(nil, live, new([]int))
	skewed := *live
	skewed.Version = 99
	bare := func(kind byte) []byte { return mustRecord(walRecord{Kind: kind})[:9] } // tag and digest, no body
	cases := []struct {
		name     string
		records  [][]byte
		snapshot []byte
		opts     []DurOption
		wantIs   error
		wantSub  string
	}{
		{name: "bad-duroption", records: [][]byte{genesis},
			opts: []DurOption{DurSnapshotEvery(0)}, wantIs: ErrInvalidOption},
		{name: "no-genesis", records: nil, wantIs: wal.ErrCorrupt},
		{name: "first-record-not-genesis",
			records: [][]byte{mustRecord(walRecord{Kind: recSubmit})}, wantIs: wal.ErrCorrupt},
		{name: "genesis-truncated", records: [][]byte{genesis[:len(genesis)-3]},
			wantIs: errWireTruncated, wantSub: "decoding genesis"},
		{name: "genesis-trailing-bytes", records: [][]byte{append(append([]byte(nil), genesis...), 0)},
			wantIs: errWireTrailing, wantSub: "decoding genesis"},
		{name: "genesis-version-skew",
			records: [][]byte{mkGenesis(99, overloadMarket(), fp)}, wantIs: errWireVersion, wantSub: "version 99"},
		{name: "genesis-bad-policy",
			records: [][]byte{mkGenesis(durVersion, overloadMarket(), configFingerprint{Policy: "bogus", Seed: 1})},
			wantIs:  ErrInvalidOption},
		{name: "genesis-bad-market",
			records: [][]byte{mkGenesis(durVersion, Market{SpeedKmh: -1}, fp)},
			wantSub: "rebuilding service"},
		{name: "snapshot-bad-json", records: [][]byte{genesis},
			snapshot: []byte("junk"), wantIs: errWireValue, wantSub: "decoding snapshot"},
		{name: "snapshot-truncated", records: [][]byte{genesis},
			snapshot: good[:len(good)/2], wantIs: errWireTruncated, wantSub: "decoding snapshot"},
		{name: "snapshot-trailing-bytes", records: [][]byte{genesis},
			snapshot: append(append([]byte(nil), good...), 0), wantIs: errWireTrailing},
		{name: "snapshot-version-skew", records: [][]byte{genesis},
			snapshot: appendSnapshot(nil, &skewed, new([]int)), wantIs: errWireVersion, wantSub: "version 99"},
		{name: "replay-empty-record",
			records: [][]byte{genesis, {}}, wantSub: "empty journal record"},
		{name: "replay-unknown-type",
			records: [][]byte{genesis, {99, '{', '}'}}, wantIs: errWireTag, wantSub: "unknown record type"},
		{name: "replay-submit-without-task",
			records: [][]byte{genesis, bare(recSubmit)}, wantIs: errWireTruncated},
		{name: "replay-join-without-driver",
			records: [][]byte{genesis, bare(recAddDriver)}, wantIs: errWireTruncated},
		{name: "replay-genesis-mid-log",
			records: [][]byte{genesis, genesis}, wantSub: "genesis record mid-log"},

		// Version-1 payloads are refused by name, never decoded, wherever
		// one turns up — as the genesis, as the snapshot, behind a
		// version-2 genesis — and whatever its body holds; the error says
		// which build still reads them. (The rows are named after the
		// decoder failures these same inputs reached while there was a
		// version-1 decoder.)
		{name: "genesis-bad-json", records: [][]byte{{recInit, 'x'}},
			wantIs: errWireVersion, wantSub: "decoding genesis"},
		{name: "v1-genesis-version-skew",
			records: [][]byte{v1Genesis}, wantIs: errWireVersion, wantSub: "commit e258dd6"},
		{name: "v1-snapshot-version-skew", records: [][]byte{genesis},
			snapshot: v1Snapshot, wantIs: errWireVersion, wantSub: "commit e258dd6"},
		{name: "v1-snapshot-bad-json", records: [][]byte{genesis},
			snapshot: []byte("{junk"), wantIs: errWireVersion, wantSub: "decoding snapshot"},
		{name: "v1-snapshot-id-columns-disagree", records: [][]byte{genesis},
			snapshot: []byte(`{"version":1,"driver_ids":[1]}`), wantIs: errWireVersion},
		{name: "v1-replay-bad-body",
			records: [][]byte{genesis, {recCancel, 'x'}}, wantIs: errWireVersion, wantSub: "replaying record 1"},
		{name: "v1-replay-submit-without-task",
			records: [][]byte{genesis, {recSubmit, '{', '}'}}, wantIs: errWireVersion},
		{name: "v1-replay-join-without-driver",
			records: [][]byte{genesis, {recAddDriver, '{', '}'}}, wantIs: errWireVersion},
		{name: "v1-replay-genesis-mid-log",
			records: [][]byte{genesis, v1Genesis}, wantIs: errWireVersion, wantSub: "replaying record 1"},
		// A first byte below the version-2 tags that was never a kind is
		// an unknown tag, not version skew.
		{name: "v1-replay-unknown-type",
			records: [][]byte{genesis, {9, '{', '}'}}, wantIs: errWireTag},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := mkRawLog(t, tc.records, tc.snapshot)
			_, err := Restore(dir, tc.opts...)
			if err == nil {
				t.Fatal("Restore accepted a malformed log")
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Fatalf("err = %v, want %v", err, tc.wantIs)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// TestRestoreReplaysDriverJoin replays a journaled AddDriver through a
// crafted log and checks the driver is present in the rebuilt market.
func TestRestoreReplaysDriverJoin(t *testing.T) {
	fp := fingerprint(config{policy: MaxMargin, seed: 1})
	base := Point{Lat: 41.15, Lon: -8.61}
	join := Driver{ID: 900, Source: base, Dest: Point{Lat: base.Lat + 0.02, Lon: base.Lon + 0.02},
		Start: 0, End: 7200}
	task := overloadTask(0, 1)
	dir := mkRawLog(t, [][]byte{
		mkGenesis(durVersion, overloadMarket(), fp),
		mustRecord(walRecord{Kind: recAddDriver, Driver: join}),
		mustRecord(walRecord{Kind: recSubmit, Task: task}),
	}, nil)
	svc, err := Restore(dir, DurFsync("off"))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	st, err := svc.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if st.Drivers != 5 {
		t.Fatalf("restored fleet = %d drivers, want 5 (4 initial + 1 replayed join)", st.Drivers)
	}
	if st.Tasks != 1 {
		t.Fatalf("restored tasks = %d, want 1", st.Tasks)
	}
	if _, err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRestoreRejectsDuplicateSnapshotIDs mutates a genuine snapshot so
// its stream state holds the same public driver (then task) twice:
// loadSnapshot must refuse rather than silently clobber the ID maps.
func TestRestoreRejectsDuplicateSnapshotIDs(t *testing.T) {
	snap := liveSnapshot(t)
	mutations := []struct {
		name string
		mut  func(*sim.StreamState)
	}{
		{"dup-driver", func(st *sim.StreamState) {
			st.Drivers = append(slices.Clone(st.Drivers), st.Drivers[0])
			st.States = append(slices.Clone(st.States), st.States[0])
			st.Present = append(slices.Clone(st.Present), false)
			st.Res.DriverPaths = append(slices.Clone(st.Res.DriverPaths), nil)
		}},
		{"dup-task", func(st *sim.StreamState) {
			st.Tasks = append(slices.Clone(st.Tasks), st.Tasks[0])
			st.Cancelled = append(slices.Clone(st.Cancelled), false)
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			bad, st := *snap, *snap.State
			bad.State = &st
			m.mut(&st)
			dir := mkRawLog(t, [][]byte{mkGenesis(durVersion, overloadMarket(), snap.Config)},
				appendSnapshot(nil, &bad, new([]int)))
			if _, err := Restore(dir); err == nil || !strings.Contains(err.Error(), "twice") {
				t.Fatalf("Restore(err) = %v, want duplicate-registration refusal", err)
			}
		})
	}
}

func TestFingerprintOptionsRoundTrip(t *testing.T) {
	fp := configFingerprint{Policy: "nearest", MatchWorkers: 2, RealTime: true,
		Seed: 7, Strict: true, BatchWindow: 30, BatchAlgo: "hungarian", MaxPending: 9}
	opts, err := fp.options()
	if err != nil {
		t.Fatalf("options(): %v", err)
	}
	c := config{policy: MaxMargin, seed: 1}
	for _, o := range opts {
		if err := o(&c); err != nil {
			t.Fatalf("applying option: %v", err)
		}
	}
	want := fp
	want.MatchWorkers = 0 // carried on the wire, read by no option, written as 0
	if got := fingerprint(c); got != want {
		t.Fatalf("round trip drifted:\n got  %+v\n want %+v", got, want)
	}
	bad := fp
	bad.BatchAlgo = "bogus"
	if _, err := bad.options(); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("options() with bad algo: err = %v, want ErrInvalidOption", err)
	}
	bad.BatchAlgo = "auction"
	if _, err := bad.options(); !errors.Is(err, errAuctionLog) {
		t.Fatalf("options() with the auction: err = %v, want errAuctionLog", err)
	}
}

// TestRealTimeWindowTickJournaled drives a durable real-time batched
// service: the wall-clock timer closes the window (journaling the tick
// as a recAdvance record), the service is halted, and Restore replays
// the tick to reach the same decision.
func TestRealTimeWindowTickJournaled(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	svc, err := New(overloadMarket(),
		WithBatching(0.05, Hungarian), WithRealTime(),
		WithDurability(dir, DurFsync("off")))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	a, err := svc.SubmitTask(ctx, overloadTask(0, 0))
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if !a.Pending {
		t.Fatalf("batched submission decided instantly: %+v", a)
	}
	var want Assignment
	deadline := time.Now().Add(10 * time.Second)
	for {
		want, err = svc.Decision(ctx, 0)
		if err != nil {
			t.Fatalf("Decision: %v", err)
		}
		if !want.Pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("window timer never closed the batch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := svc.Halt(); err != nil {
		t.Fatalf("Halt: %v", err)
	}

	restored, err := Restore(dir, DurFsync("off"))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got, err := restored.Decision(ctx, 0)
	if err != nil {
		t.Fatalf("restored Decision: %v", err)
	}
	if got != want {
		t.Fatalf("replayed window tick diverged:\n got  %+v\n want %+v", got, want)
	}
	if _, err := restored.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestShutdownStopsArmedTimer halts (then closes) a real-time batched
// service while its window timer is armed and a subscriber is live.
func TestShutdownStopsArmedTimer(t *testing.T) {
	for _, stop := range []struct {
		name string
		call func(*Service) (Stats, error)
	}{
		{"close", (*Service).Close},
		{"halt", (*Service).Halt},
	} {
		t.Run(stop.name, func(t *testing.T) {
			svc, err := New(overloadMarket(), WithBatching(30, Hungarian), WithRealTime())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ch, cancel := svc.Subscribe(8)
			defer cancel()
			if _, err := svc.SubmitTask(context.Background(), overloadTask(0, 0)); err != nil {
				t.Fatalf("SubmitTask: %v", err)
			}
			if _, err := stop.call(svc); err != nil {
				t.Fatalf("%s: %v", stop.name, err)
			}
			for range ch { // shutdown must close the feed
			}
		})
	}
}
