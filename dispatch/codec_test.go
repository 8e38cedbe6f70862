package dispatch

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Floats a decimal round trip is most likely to bend.
var (
	negZero  = math.Copysign(0, -1)
	denormal = math.SmallestNonzeroFloat64
)

// sampleRecords is one record of every kind, the awkward floats included.
func sampleRecords() []walRecord {
	rn := RoadNetwork{Rows: 6, Cols: 7, Seed: 3, CacheEntries: 64, Algo: "ch"}
	fp := configFingerprint{Policy: "nearest", MatchWorkers: 2, RealTime: true, Seed: -7, Strict: true,
		BatchWindow: 45, BatchAlgo: "auction", MaxPending: 9, RoadNetwork: &rn}
	task := overloadTask(12, 3.5)
	task.Price, task.WTP, task.EndBy = denormal, math.MaxFloat64, negZero
	driver := overloadMarket().Drivers[1]
	driver.JoinAt, driver.SpeedKmh = 17.25, negZero
	return []walRecord{
		{Kind: recInit, Init: &initRecord{Version: durVersion, Market: overloadMarket(), Config: fp}},
		{Kind: recInit, Digest: 1, Init: &initRecord{Version: durVersion,
			Market: Market{SpeedKmh: 42, GasPerKm: 0.5, Drivers: []Driver{}}, Config: configFingerprint{Policy: "maxmargin", Seed: 1}}},
		{Kind: recSubmit, Digest: 0xfeedfacecafebeef, Task: task},
		{Kind: recCancel, Digest: 2, ID: -4, At: negZero},
		{Kind: recAddDriver, Digest: 3, Driver: driver},
		{Kind: recRetire, Digest: 4, ID: 103, At: math.MaxFloat64},
		{Kind: recAdvance, Digest: 5, At: denormal},
		{Kind: recFinish, Digest: 6},
	}
}

// TestCodecRecordRoundTrip: every record kind decodes to the value that
// was encoded, bit for bit, re-encodes to the same bytes, and encodes
// into a reused buffer without allocating.
func TestCodecRecordRoundTrip(t *testing.T) {
	var buf []byte
	for _, rec := range sampleRecords() {
		data := appendRecord(nil, &rec)
		if data[0] != rec2Base+rec.Kind || binary.LittleEndian.Uint64(data[1:]) != rec.Digest {
			t.Fatalf("kind %d: header % x does not open with the tag and the digest", rec.Kind, data[:9])
		}
		got, err := decodeRecord(data)
		if err != nil {
			t.Fatalf("kind %d: decode: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("kind %d: round trip\nwant %+v\ngot  %+v", rec.Kind, rec, got)
		}
		if again := appendRecord(nil, &got); !bytes.Equal(data, again) {
			t.Fatalf("kind %d: re-encoding changed the bytes", rec.Kind)
		}
		buf = appendRecord(buf[:0], &rec)
		if n := testing.AllocsPerRun(50, func() { buf = appendRecord(buf[:0], &rec) }); n != 0 {
			t.Fatalf("kind %d: %v allocations encoding into a reused buffer", rec.Kind, n)
		}
		// Every strict prefix is short, and one more byte is one too many.
		for cut := 1; cut < len(data); cut++ {
			if _, err := decodeRecord(data[:cut]); !errors.Is(err, errWireTruncated) {
				t.Fatalf("kind %d cut at %d/%d: err = %v, want errWireTruncated", rec.Kind, cut, len(data), err)
			}
		}
		if _, err := decodeRecord(append(data, 0)); !errors.Is(err, errWireTrailing) {
			t.Fatalf("kind %d: trailing byte: err = %v, want errWireTrailing", rec.Kind, err)
		}
	}
	// DeepEqual holds -0 equal to 0: look at the bits.
	sub, err := decodeRecord(appendRecord(nil, &sampleRecords()[2]))
	if err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(sub.Task.EndBy) || sub.Task.Price != denormal || sub.Task.WTP != math.MaxFloat64 {
		t.Fatalf("awkward floats bent in transit: %+v", sub.Task)
	}
}

// simScenario is the churned day of internal/sim's
// TestStreamStateRoundTrip, as stream operations.
type simOp struct {
	at     float64
	rank   int
	isTask bool
	task   int
}

func simScenario() (trace.Config, model.Trace, []simOp, []model.MarketEvent) {
	cfg := trace.NewConfig(41, 120, 25, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	var ops []simOp
	var fleet []model.MarketEvent
	for _, ev := range trace.WithChurn(tr, trace.DefaultChurn(3, 0.4, 0.3)) {
		if ev.Kind == model.EventCancel {
			ops = append(ops, simOp{at: ev.At, rank: 2, task: ev.Task})
		} else {
			fleet = append(fleet, ev)
		}
	}
	for i := range tr.Tasks {
		ops = append(ops, simOp{at: tr.Tasks[i].Publish, rank: 5, isTask: true, task: i})
	}
	sort.SliceStable(ops, func(a, b int) bool {
		if ops[a].at != ops[b].at {
			return ops[a].at < ops[b].at
		}
		return ops[a].rank < ops[b].rank
	})
	return cfg, tr, ops, fleet
}

func applySimOps(t *testing.T, st *sim.Stream, tr model.Trace, ops []simOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		if op.isTask {
			_, err = st.SubmitTask(tr.Tasks[op.task])
		} else {
			_, _, err = st.CancelTask(op.task, op.at)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCodecStateRoundTrip is the suspend/resume differential of
// internal/sim taken through the binary codec instead of JSON: capture
// mid-day, encode, decode — the decoded state is deeply equal to the
// captured one — restore it onto a fresh engine and finish, and the
// books equal the uninterrupted run's. Instant (a policy that draws the
// RNG) and batched. Between them the captures must show a nil driver
// path beside an emptied one, and an open window beside a closed one.
func TestCodecStateRoundTrip(t *testing.T) {
	cfg, tr, ops, fleet := simScenario()
	var nilPath, emptyPath, openWindow, closedWindow bool
	for _, batched := range []bool{false, true} {
		mk := func() *sim.Stream {
			e, err := sim.New(cfg.Market, tr.Drivers, 7)
			if err != nil {
				t.Fatal(err)
			}
			e.SetCandidateSource(sim.NewGridSource(nil))
			var st *sim.Stream
			if batched {
				st, err = e.NewBatchedStream(45, sim.BatchHungarian, fleet)
			} else {
				st, err = e.NewStream(online.Random{}, fleet)
			}
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		ref := mk()
		applySimOps(t, ref, tr, ops)
		want, err := ref.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 1, len(ops) / 3, len(ops) / 2, len(ops) - 1, len(ops)} {
			st := mk()
			applySimOps(t, st, tr, ops[:cut])
			state, err := st.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			data := appendState(nil, state, new([]int))
			r := wireReader{b: data}
			back := readState(&r)
			if err := r.finish(); err != nil {
				t.Fatalf("batched=%v cut %d: decode: %v", batched, cut, err)
			}
			if !reflect.DeepEqual(state, back) {
				t.Fatalf("batched=%v cut %d: decoded state differs from the captured one", batched, cut)
			}
			for _, p := range back.Res.DriverPaths {
				nilPath = nilPath || p == nil
				emptyPath = emptyPath || p != nil && len(p) == 0
			}
			if back.Batch != nil {
				openWindow = openWindow || back.Batch.Open
				closedWindow = closedWindow || !back.Batch.Open
			}

			e2, err := sim.New(cfg.Market, tr.Drivers, 7)
			if err != nil {
				t.Fatal(err)
			}
			e2.SetCandidateSource(sim.NewGridSource(nil))
			var restored *sim.Stream
			if batched {
				restored, err = e2.RestoreStream(back, nil, 45)
			} else {
				restored, err = e2.RestoreStream(back, online.Random{}, 0)
			}
			if err != nil {
				t.Fatalf("batched=%v cut %d: RestoreStream: %v", batched, cut, err)
			}
			applySimOps(t, restored, tr, ops[cut:])
			got, err := restored.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("batched=%v cut %d: the run restored through the codec settled different books", batched, cut)
			}
		}
	}
	if !nilPath || !emptyPath || !openWindow || !closedWindow {
		t.Fatalf("scenario too tame: nil path %v, emptied path %v, open window %v, closed window %v",
			nilPath, emptyPath, openWindow, closedWindow)
	}
}

// TestCodecSnapshotRoundTrip takes the churned day of
// TestDurableRestoreDifferential, instant and batched, and at several
// cuts checks that the snapshot the service would write decodes to the
// value it was captured from and re-encodes to the same bytes.
func TestCodecSnapshotRoundTrip(t *testing.T) {
	cfg := trace.NewConfig(61, 110, 22, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(9, 0.4, 0.3))
	market, feed := durFeed(tr)
	for _, batched := range []bool{false, true} {
		opts := []Option{WithSeed(7), WithDispatcher(Nearest)}
		if batched {
			opts = append(opts, WithBatching(45, Hungarian), WithMaxPending(50))
		}
		for _, cut := range []int{0, 1, len(feed) / 3, len(feed) / 2, len(feed) - 1, len(feed)} {
			svc, err := New(market, opts...)
			if err != nil {
				t.Fatal(err)
			}
			applyFeed(t, svc, tr, feed[:cut])
			svc.mu.Lock()
			want, err := svc.captureSnapshot(new([]int))
			svc.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			data := appendSnapshot(nil, &want, new([]int))
			got, err := decodeSnapshot(data)
			if err != nil {
				t.Fatalf("batched=%v cut %d: decode: %v", batched, cut, err)
			}
			if !reflect.DeepEqual(&want, got) {
				t.Fatalf("batched=%v cut %d: decoded snapshot differs from the captured one\nwant %+v\ngot  %+v", batched, cut, want, *got)
			}
			if again := appendSnapshot(nil, got, new([]int)); !bytes.Equal(data, again) {
				t.Fatalf("batched=%v cut %d: re-encoding changed the bytes", batched, cut)
			}
			if cut > 1 && (want.Digest == 0 || len(want.Decided) == 0) {
				t.Fatalf("batched=%v cut %d: snapshot carries no digest or no decisions", batched, cut)
			}
			svc.Close()
		}
	}
}

// awkwardSnapshot is a hand-built snapshot holding what a real day
// rarely does: -0, a denormal and MaxFloat64 in every float column, nil
// beside empty slices, negative ints.
func awkwardSnapshot() *snapPayload {
	ds := sim.DriverStateSnap{FreeAt: negZero, Loc: geo.Point{Lat: denormal, Lon: -denormal}, Revenue: math.MaxFloat64, Cost: -math.MaxFloat64, NTasks: -1}
	return &snapPayload{
		Version: durVersion, Digest: math.MaxUint64, SpeedKmh: denormal, GasPerKm: negZero,
		Config:  configFingerprint{Policy: "random", Seed: math.MinInt64, BatchWindow: denormal, BatchAlgo: "hungarian"},
		Retired: []int{-3, 0, 8},
		Decided: map[int]Assignment{
			-2: {TaskID: -2, DriverID: -1, DecidedAt: negZero},
			5:  {TaskID: 5, Assigned: true, DriverID: 9, PickupBy: denormal, DecidedAt: math.MaxFloat64},
			7:  {TaskID: 7, DriverID: -1, Pending: true, DecideBy: negZero},
		},
		Shed: -1,
		State: &sim.StreamState{
			Drivers:   []model.Driver{{ID: -9, Start: negZero, End: denormal, SpeedKmh: math.MaxFloat64}, {ID: 4}},
			States:    []sim.DriverStateSnap{ds, {}},
			Present:   []bool{true, false},
			RNGDraws:  math.MaxUint64,
			Now:       negZero,
			Started:   true,
			Seq:       -5,
			Tasks:     []model.Task{{ID: 5, Publish: negZero, Price: denormal, WTP: math.MaxFloat64}},
			Cancelled: []bool{},
			Queue:     []sim.EventSnap{{Key: negZero, Kind: 1, Seq: -1, At: denormal, Idx: 3}},
			Inflight:  []sim.InflightSnap{{Task: 5, Driver: 1, Prev: ds, Arrival: negZero}},
			Revert:    nil,
			Res: sim.ResultSnap{Served: 1, Rejected: -1, Cancelled: 2,
				Assignment:  map[int]int{-1: 0, 5: 1},
				DriverPaths: [][]int{nil, {}}},
			Batch: &sim.BatchSnap{Batch: []int{}, OpenedAt: negZero, CloseAt: denormal, Open: true, Cancelled: -2},
		},
	}
}

// TestCodecAwkwardValues: the hand-built snapshot survives the trip —
// deeply equal, and byte-identical on re-encoding, which is what proves
// the -0s (== 0 to DeepEqual) kept their sign.
func TestCodecAwkwardValues(t *testing.T) {
	want := awkwardSnapshot()
	data := appendSnapshot(nil, want, new([]int))
	got, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip\nwant %+v\ngot  %+v", want, got)
	}
	if !bytes.Equal(data, appendSnapshot(nil, got, new([]int))) {
		t.Fatal("re-encoding changed the bytes")
	}
	st := got.State
	if !math.Signbit(st.Now) || !math.Signbit(st.States[0].FreeAt) || !math.Signbit(got.GasPerKm) ||
		st.Res.DriverPaths[0] != nil || st.Res.DriverPaths[1] == nil || st.Revert != nil || st.Cancelled == nil || st.Batch.Batch == nil {
		t.Fatalf("a sign or a nil was lost: %+v", st)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeSnapshot(data[:cut]); !errors.Is(err, errWireTruncated) {
			t.Fatalf("cut at %d/%d: err = %v, want errWireTruncated", cut, len(data), err)
		}
	}
}

// TestCodecRejectsMalformedValues: well-framed payloads holding values
// no encoder writes, assembled field by field.
func TestCodecRejectsMalformedValues(t *testing.T) {
	fp := configFingerprint{Policy: "maxmargin", Seed: 1}
	// snapshotWith is a valid empty snapshot around the given Retired and
	// Decided sections.
	snapshotWith := func(retired, decided []byte) []byte {
		b := appendU64(appendU32([]byte{snapTag}, durVersion), 0)
		b = appendFingerprint(appendF64(appendF64(b, 30), 0.09), &fp)
		b = append(append(appendInt(b, 0), retired...), decided...)
		return appendState(b, &sim.StreamState{}, new([]int))
	}
	entry := func(b []byte, id int) []byte { // one undecided Decided entry
		return append(appendInt(append(appendInt(b, id), 0, 0), -1), make([]byte, 3*8)...)
	}
	noRetired, noDecided := appendU32(nil, nilLen), appendU32(nil, 0)
	if _, err := decodeSnapshot(snapshotWith(noRetired, entry(entry(appendU32(nil, 2), 4), 5))); err != nil {
		t.Fatalf("the hand-assembled snapshot is not valid to begin with: %v", err)
	}
	// A genesis record up to and including its policy string.
	genesisHead := func(policyCount uint32) []byte {
		b := appendU32(appendU64([]byte{rec2Base + recInit}, 0), durVersion)
		return append(appendU32(appendF64(appendF64(b, 0), 0), policyCount), "maxmargin"...)
	}
	badBool := appendInt(genesisHead(9), 0) // MatchWorkers, then RealTime:
	badBool = append(badBool, 2)
	cases := []struct {
		name   string
		data   []byte
		record bool
		want   error
	}{
		{"snapshot-bad-tag", append([]byte{rec2Base + recSubmit}, snapshotWith(noRetired, noDecided)[1:]...), false, errWireValue},
		{"decided-keys-descending", snapshotWith(noRetired, entry(entry(appendU32(nil, 2), 5), 4)), false, errWireValue},
		{"decided-keys-equal", snapshotWith(noRetired, entry(entry(appendU32(nil, 2), 5), 5)), false, errWireValue},
		{"decided-nil-marker", snapshotWith(noRetired, appendU32(nil, nilLen)), false, errWireTruncated},
		{"retired-count-past-end", snapshotWith(appendU32(nil, 1<<30), noDecided), false, errWireTruncated},
		{"bool-byte-2", badBool, true, errWireValue},
		{"string-nil-marker", genesisHead(nilLen), true, errWireTruncated},
		{"record-unknown-kind", appendU64([]byte{rec2Base + 8}, 0), true, errWireTag},
		{"record-v1-range-unknown-kind", []byte{8, '{', '}'}, true, errWireTag},
	}
	for _, tc := range cases {
		var err error
		if tc.record {
			_, err = decodeRecord(tc.data)
		} else {
			_, err = decodeSnapshot(tc.data)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// walFiles returns the .wal and .snap files of a log directory by name.
func walFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, pat := range []string{"seg-*.wal", "snap-*.snap"} {
		paths, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if files[filepath.Base(p)], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return files
}

// TestDurableLogBytesDeterministic: two runs of one churned, batched day
// leave byte-identical segment and snapshot files. Retired drivers,
// in-flight assignments and pending revocations all live in maps; a
// snapshot that wrote them in iteration order differed from run to run.
func TestDurableLogBytesDeterministic(t *testing.T) {
	cfg := trace.NewConfig(61, 110, 22, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(9, 0.4, 0.3))
	market, feed := durFeed(tr)
	var runs [2]map[string][]byte
	for i := range runs {
		dir := t.TempDir()
		svc, err := New(market, WithSeed(7), WithBatching(45, Hungarian),
			WithDurability(dir, DurSnapshotEvery(5), DurKeepSnapshots(1000), DurSegmentBytes(4096), DurFsync("off")))
		if err != nil {
			t.Fatal(err)
		}
		applyFeed(t, svc, tr, feed)
		if _, err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		runs[i] = walFiles(t, dir)
	}
	snaps := 0
	for name, data := range runs[0] {
		if !bytes.Equal(data, runs[1][name]) {
			t.Errorf("%s differs between two runs of the same day", name)
		}
		if filepath.Ext(name) == ".snap" {
			snaps++
		}
	}
	if len(runs[0]) != len(runs[1]) || snaps < 10 {
		t.Fatalf("runs left %d and %d files, %d snapshots: want equal sets and a real sample", len(runs[0]), len(runs[1]), snaps)
	}
}

// TestRestoreDetectsReplayDivergence alters one float of a mid-log
// submit record and re-checksums its frame, which is what a build whose
// arithmetic changed looks like from the log's side: the record still
// replays, but to another decision. Restore must stop at the next
// record — the first whose journaled digest the replay cannot match —
// and name it, instead of returning different books.
func TestRestoreDetectsReplayDivergence(t *testing.T) {
	cfg := trace.NewConfig(63, 40, 10, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)
	dir := t.TempDir()
	svc, err := New(market, WithSeed(5), WithDurability(dir, DurSnapshotEvery(100000), DurFsync("off")))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, svc, tr, feed) // submissions only: op k is record k+1
	target := -1
	for k := len(feed) / 3; k < len(feed)-1; k++ {
		if a, err := svc.Decision(context.Background(), feed[k].idx); err == nil && a.Assigned {
			target = k + 1
			break
		}
	}
	if target < 0 {
		t.Fatal("no assigned order in the middle of the day")
	}
	if _, err := svc.Halt(); err != nil {
		t.Fatal(err)
	}

	seg := segFileOf(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := 16 // segment header
	for lsn := 0; lsn < target; lsn++ {
		off += 8 + int(binary.LittleEndian.Uint32(buf[off:]))
	}
	payload := buf[off+8 : off+8+int(binary.LittleEndian.Uint32(buf[off:]))]
	if payload[0] != rec2Base+recSubmit {
		t.Fatalf("record %d is not a submission", target)
	}
	payload[1+8+8] ^= 1 // lowest mantissa bit of Task.Publish: decided one ulp later
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Recover(dir); err != nil {
		t.Fatalf("the altered log no longer passes its checksums: %v", err)
	}

	_, err = Restore(dir)
	var div *ReplayDivergedError
	if !errors.Is(err, ErrReplayDiverged) || !errors.As(err, &div) {
		t.Fatalf("Restore over an altered record = %v, want ErrReplayDiverged", err)
	}
	if div.LSN != uint64(target+1) || div.Logged == div.Replayed {
		t.Fatalf("divergence reported as %+v, want the record after %d", *div, target)
	}
}

// seedPayloads returns real payloads to seed the fuzzers with: every
// record of a small churned batched day, and its newest snapshot.
func seedPayloads(f *testing.F) (records [][]byte, snapshot []byte) {
	f.Helper()
	cfg := trace.NewConfig(64, 30, 8, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(2, 0.4, 0.3))
	market, feed := durFeed(tr)
	ctx := context.Background()
	dir := f.TempDir()
	svc, err := New(market, WithBatching(45, Hungarian), WithDurability(dir, DurSnapshotEvery(100000), DurFsync("off")))
	if err != nil {
		f.Fatal(err)
	}
	applyFeed(f, svc, tr, feed)
	if err := svc.AddDriver(ctx, Driver{ID: 9000, Source: market.Drivers[0].Source, Dest: market.Drivers[0].Dest, End: 1e6}); err != nil {
		f.Fatal(err)
	}
	if _, err := svc.Close(); err != nil {
		f.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		f.Fatal(err)
	}
	// The final snapshot covers every record but the finish: take the
	// rest, genesis first, out of the segment itself.
	return segRecords(f, dir), rec.Snapshot
}

// segRecords returns every record payload of a one-segment log, genesis
// first, whatever snapshots cover them.
func segRecords(t testing.TB, dir string) (records [][]byte) {
	t.Helper()
	seg, err := os.ReadFile(segFileOf(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	for off := 16; off < len(seg); { // 16: segment header
		end := off + 8 + int(binary.LittleEndian.Uint32(seg[off:]))
		records = append(records, seg[off+8:end])
		off = end
	}
	return records
}

// poolFingerprint is the configuration `serve -batch-window 30
// -match-workers 2` journaled on builds that had the window worker pool.
var poolFingerprint = configFingerprint{Policy: "maxmargin", MatchWorkers: 2, Seed: 9, BatchWindow: 30, BatchAlgo: "hungarian"}

// auctionFingerprint is the configuration `serve -batch-window 30
// -batch-algo auction` journaled on builds that had the ε-auction
// window solver (commit 818a72e and before).
var auctionFingerprint = configFingerprint{Policy: "maxmargin", Seed: 9, BatchWindow: 30, BatchAlgo: "auction"}

// TestRestoreRefusesAuctionLog: a genesis and a snapshot that name the
// auction still decode and re-encode byte for byte — the slot is the
// codec's to carry — and Restore refuses each by name, telling the
// operator which build reads the log; it neither falls back to the
// Hungarian solve nor panics.
func TestRestoreRefusesAuctionLog(t *testing.T) {
	genesis := mkGenesis(durVersion, overloadMarket(), auctionFingerprint)
	rec, err := decodeRecord(genesis)
	if err != nil || rec.Init.Config != auctionFingerprint {
		t.Fatalf("decoding the auction genesis: %+v, %v", rec.Init, err)
	}
	if back := appendRecord(nil, &rec); !bytes.Equal(back, genesis) {
		t.Fatal("the auction genesis does not re-encode to its own bytes")
	}

	// The snapshot sits behind a Hungarian genesis, so it is the
	// snapshot's own slot that is refused.
	snap := liveSnapshot(t, WithSeed(auctionFingerprint.Seed), WithBatching(auctionFingerprint.BatchWindow, Hungarian))
	hungarian := mkGenesis(durVersion, overloadMarket(), snap.Config)
	snap.Config.BatchAlgo = "auction"
	if snap.Config != auctionFingerprint {
		t.Fatalf("the snapshot's fingerprint %+v is not the auction build's %+v", snap.Config, auctionFingerprint)
	}
	for name, dir := range map[string]string{
		"genesis":  mkRawLog(t, [][]byte{genesis}, nil),
		"snapshot": mkRawLog(t, [][]byte{hungarian}, appendSnapshot(nil, snap, new([]int))),
	} {
		svc, err := Restore(dir)
		if svc != nil || !errors.Is(err, errAuctionLog) {
			t.Fatalf("%s: Restore = %v, %v, want errAuctionLog and no service", name, svc, err)
		}
		for _, want := range []string{"batched(auction)", "commit 818a72e", "no conversion"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: refusal %q does not say %q", name, err, want)
			}
		}
	}
}

// TestRestoreIgnoresMatchWorkersSlot: a log whose genesis names a worker
// pool restores to the books of the run that wrote it, takes 100 more
// operations to the same books as a service that was never interrupted,
// and its genesis still re-encodes to the bytes on disk.
func TestRestoreIgnoresMatchWorkersSlot(t *testing.T) {
	cfg := trace.NewConfig(66, 240, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(3, 0.3, 0.2))
	market, feed := durFeed(tr)
	cut := len(feed) - 100
	opts := []Option{WithSeed(poolFingerprint.Seed), WithBatching(poolFingerprint.BatchWindow, Hungarian)}
	ctx := context.Background()

	ref, err := New(market, opts...)
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, ref, tr, feed[:cut])
	wantMid, err := ref.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wantMid.Served == 0 || wantMid.Pending == 0 {
		t.Fatalf("degenerate cut, nothing served or nothing waiting: %+v", wantMid)
	}

	dir := t.TempDir()
	svc, err := New(market, append(opts, WithDurability(dir, DurSnapshotEvery(100000), DurFsync("off")))...)
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, svc, tr, feed[:cut])
	if _, err := svc.Halt(); err != nil {
		t.Fatal(err)
	}
	records := segRecords(t, dir)
	genesis, err := decodeRecord(records[0])
	if err != nil {
		t.Fatal(err)
	}
	if genesis.Init.Config.MatchWorkers != 0 {
		t.Fatalf("this build journaled a worker count: %+v", genesis.Init.Config)
	}
	genesis.Init.Config.MatchWorkers = poolFingerprint.MatchWorkers
	if genesis.Init.Config != poolFingerprint {
		t.Fatalf("the day's fingerprint %+v is not the pool build's %+v", genesis.Init.Config, poolFingerprint)
	}
	records[0] = appendRecord(nil, &genesis)

	old := mkRawLog(t, records, nil)
	restored, err := Restore(old, DurSnapshotEvery(100000), DurFsync("off"))
	if err != nil {
		t.Fatalf("Restore of a log whose genesis names a worker pool: %v", err)
	}
	gotMid, err := restored.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wantMid != gotMid {
		t.Fatalf("restored books\nwant %+v\ngot  %+v", wantMid, gotMid)
	}
	applyFeed(t, ref, tr, feed[cut:])
	applyFeed(t, restored, tr, feed[cut:])
	want, err := ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(ref.final, restored.final) {
		t.Fatalf("books after 100 more operations\nwant %+v\ngot  %+v", want, got)
	}
	onDisk := segRecords(t, old)[0]
	kept, err := decodeRecord(onDisk)
	if err != nil {
		t.Fatal(err)
	}
	if again := appendRecord(nil, &kept); !bytes.Equal(onDisk, again) || kept.Init.Config.MatchWorkers != 2 {
		t.Fatalf("the genesis no longer re-encodes to its own bytes (slot read as %d)", kept.Init.Config.MatchWorkers)
	}
}

// allocatedBy reports the bytes fn allocates: the least of three runs
// when the first looks large, because the counter is process-wide and a
// fuzz worker's other goroutines allocate now and then.
func allocatedBy(fn func(), suspicious uint64) uint64 {
	least := uint64(math.MaxUint64)
	for try := 0; try < 3 && least > suspicious; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// allocBudget bounds what decoding n input bytes may allocate: the
// decoded value is at most a small multiple of its encoding (a 4-byte
// empty path becomes a 24-byte slice header, a 42-byte decision a map
// entry), plus an error value and the fuzz worker's background noise.
func allocBudget(n int) uint64 { return 64*uint64(n) + 1<<12 }

// FuzzDecodeRecord: arbitrary bytes never panic the record decoder and
// never make it allocate out of proportion to the input, and whatever
// payload it accepts is exactly what the encoder would write.
func FuzzDecodeRecord(f *testing.F) {
	records, _ := seedPayloads(f)
	for _, r := range records {
		f.Add(r)
	}
	for _, rec := range sampleRecords() {
		f.Add(appendRecord(nil, &rec))
	}
	f.Add([]byte{recCancel, '{', '"', 'i', 'd', '"', ':', '3', '}'}) // version 1: refused
	f.Add(mkGenesis(durVersion, overloadMarket(), poolFingerprint))
	f.Add(mkGenesis(durVersion, overloadMarket(), auctionFingerprint)) // refused by Restore, not by the decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec walRecord
		var err error
		got := allocatedBy(func() { rec, err = decodeRecord(data) }, allocBudget(len(data)))
		if got > allocBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if again := appendRecord(nil, &rec); !bytes.Equal(data, again) {
			t.Fatalf("accepted % x but encodes it as % x", data, again)
		}
	})
}

// FuzzDecodeSnapshot: the same contract for snapshot payloads.
func FuzzDecodeSnapshot(f *testing.F) {
	_, snapshot := seedPayloads(f)
	f.Add(snapshot)
	f.Add(appendSnapshot(nil, awkwardSnapshot(), new([]int)))
	// Paths are decoded from one block: nil, empty and multi-task paths
	// interleaved, leading and trailing.
	for _, paths := range [][][]int{
		{{5, 5, 5}, nil, {}, {5}, nil, {5, 5}, {}},
		{{}, nil, {5, -1}, {}, {5}, nil},
	} {
		snap := awkwardSnapshot()
		snap.State.Res.DriverPaths = paths
		f.Add(appendSnapshot(nil, snap, new([]int)))
	}
	f.Add([]byte(`{"version":1,"state":{"drivers":[]}}`)) // version 1: refused
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap *snapPayload
		var err error
		got := allocatedBy(func() { snap, err = decodeSnapshot(data) }, allocBudget(len(data)))
		if got > allocBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if again := appendSnapshot(nil, snap, new([]int)); !bytes.Equal(data, again) {
			t.Fatalf("accepted a %d-byte snapshot but encodes it as %d bytes", len(data), len(again))
		}
	})
}

// benchSnapshot captures a mid-day snapshot of a market big enough to
// time: 2 000 drivers (200 under -short) and a few hundred decided orders.
func benchSnapshot(b *testing.B) snapPayload {
	b.Helper()
	drivers := 2000
	if testing.Short() {
		drivers = 200
	}
	cfg := trace.NewConfig(5, 400, drivers, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)
	svc, err := New(market, WithBatching(60, Hungarian))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	applyFeed(b, svc, tr, feed[:len(feed)/2])
	snap, err := svc.captureSnapshot(new([]int))
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkJournalRecord times a submission record through the codec:
// what every journaled order pays on the way in, and on replay.
func BenchmarkJournalRecord(b *testing.B) {
	rec := walRecord{Kind: recSubmit, Digest: 7, Task: overloadTask(3, 12.5)}
	data := appendRecord(nil, &rec)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		buf := make([]byte, 0, len(data))
		for b.Loop() {
			buf = appendRecord(buf[:0], &rec)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := decodeRecord(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotCodec times a whole snapshot payload each way.
func BenchmarkSnapshotCodec(b *testing.B) {
	snap := benchSnapshot(b)
	data := appendSnapshot(nil, &snap, new([]int))
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		buf, keys := make([]byte, 0, len(data)), new([]int)
		for b.Loop() {
			buf = appendSnapshot(buf[:0], &snap, keys)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := decodeSnapshot(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
