package dispatch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
)

// This file is the version-2 wire codec of the durable rail: the bytes
// inside every internal/wal record frame and snapshot file. DESIGN.md
// ("The durability rail") tabulates the layout; the rules are few.
//
//   - Everything is fixed-width little-endian: an int is 8 bytes
//     (two's complement), a float64 is the 8 bytes of math.Float64bits
//     — so every float, -0 and denormals included, reads back as the
//     bits that were written — a bool is one byte, 0 or 1.
//   - A slice or string is a u32 count followed by its elements; the
//     count 0xFFFFFFFF marks a nil slice, which reads back nil (the
//     stream state distinguishes a nil driver path from an emptied one).
//   - A map is a u32 count followed by its entries in strictly
//     ascending key order, so the same state always encodes to the same
//     bytes; the decoder rejects any other order.
//   - Encoders append to the caller's buffer and allocate nothing when
//     it has room. Decoders check every count against the bytes that
//     remain before allocating, reject trailing bytes, and accept
//     exactly what the encoders emit: encode(decode(x)) == x.
//
// A payload names itself by its first byte: rec2Base+kind for a record,
// snapTag for a snapshot. Version-1 payloads (JSON) began with a bare
// kind (1–7) or '{' and are refused by name: see errVersion1.

const (
	durVersion = 2

	rec2Base byte = 0x10 // first byte of a record: rec2Base + kind
	snapTag  byte = 0x18 // first byte of a snapshot

	nilLen = math.MaxUint32 // count prefix of a nil slice
)

// Decode failures; match with errors.Is. A payload that fails one of
// these passed its CRC, so it is version skew or a writer bug rather
// than a damaged disk.
var (
	errWireTruncated = errors.New("payload ends early")
	errWireTrailing  = errors.New("payload has trailing bytes")
	errWireTag       = errors.New("unknown record type")
	errWireVersion   = errors.New("unsupported log version")
	errWireValue     = errors.New("malformed value")
)

// errVersion1 refuses a payload of the JSON format that durVersion 2
// replaced. The last build that reads it is commit e258dd6, and a log
// that build has restored is a version-2 log from its next snapshot on.
func errVersion1(what string) error {
	return fmt.Errorf("%w: a version-1 %s, which this build no longer reads; restore the log once with the build at commit e258dd6 and let it cut a snapshot (its next cadence point, or Close) — it continues the log in version 2",
		errWireVersion, what)
}

func appendU32(b []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func appendInt(b []byte, v int) []byte     { return appendU64(b, uint64(int64(v))) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

func appendPoint(b []byte, p geo.Point) []byte {
	return appendF64(appendF64(b, p.Lat), p.Lon)
}

// appendSlice writes s as a count and its elements, each by elem.
func appendSlice[T any](b []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return appendU32(b, nilLen)
	}
	b = appendU32(b, uint32(len(s)))
	for i := range s {
		b = elem(b, &s[i])
	}
	return b
}

func appendInts(b []byte, s *[]int) []byte {
	return appendSlice(b, *s, func(b []byte, v *int) []byte { return appendInt(b, *v) })
}

func appendBools(b []byte, s []bool) []byte {
	return appendSlice(b, s, func(b []byte, v *bool) []byte { return appendBool(b, *v) })
}

// wireReader consumes a payload front to back. The first failure
// sticks: every later read returns zero, so callers check err once.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.fail(errWireTruncated)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *wireReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *wireReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *wireReader) int() int     { return int(int64(r.u64())) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(fmt.Errorf("%w: bool byte outside 0/1", errWireValue))
	return false
}

func (r *wireReader) point() geo.Point { return geo.Point{Lat: r.f64(), Lon: r.f64()} }

// count reads the count prefix of a string or map and checks that many
// elements of at least wire bytes each can still follow, so nothing
// sized by it can exceed the input.
func (r *wireReader) count(wire int) int {
	c := r.u32()
	if uint64(c)*uint64(wire) > uint64(len(r.b)) {
		r.fail(errWireTruncated)
		return 0
	}
	return int(c)
}

func (r *wireReader) str() string { return string(r.take(r.count(1))) }

// readSlice reads what appendSlice wrote; wire is the least an element
// occupies.
func readSlice[T any](r *wireReader, wire int, elem func(*wireReader, *T)) []T {
	if len(r.b) >= 4 && binary.LittleEndian.Uint32(r.b) == nilLen {
		r.b = r.b[4:]
		return nil
	}
	n := r.count(wire)
	if r.err != nil {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		elem(r, &s[i])
	}
	return s
}

func readInts(r *wireReader, s *[]int) {
	*s = readSlice(r, 8, func(r *wireReader, v *int) { *v = r.int() })
}

func readBools(r *wireReader) []bool {
	return readSlice(r, 1, func(r *wireReader, v *bool) { *v = r.bool() })
}

// ascending records a map key and fails the reader unless keys arrive
// in strictly ascending order.
func (r *wireReader) ascending(i int, prev *int, k int) {
	if i > 0 && k <= *prev {
		r.fail(fmt.Errorf("%w: map keys out of order", errWireValue))
	}
	*prev = k
}

// finish reports the reader's failure, or trailing bytes.
func (r *wireReader) finish() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%w: %d", errWireTrailing, len(r.b))
	}
	return r.err
}

func taskOf(mt model.Task) Task {
	return Task{ID: mt.ID, Publish: mt.Publish, Source: Point(mt.Source), Dest: Point(mt.Dest),
		StartBy: mt.StartBy, EndBy: mt.EndBy, Price: mt.Price, WTP: mt.WTP}
}

func (t Task) model() model.Task {
	return model.Task{ID: t.ID, Publish: t.Publish, Source: geo.Point(t.Source), Dest: geo.Point(t.Dest),
		StartBy: t.StartBy, EndBy: t.EndBy, Price: t.Price, WTP: t.WTP}
}

func (d Driver) model() model.Driver {
	return model.Driver{ID: d.ID, Source: geo.Point(d.Source), Dest: geo.Point(d.Dest),
		Start: d.Start, End: d.End, SpeedKmh: d.SpeedKmh}
}

const (
	wireTask   = 10 * 8
	wireDriver = 8 * 8 // a model.Driver; a public Driver adds JoinAt
)

func appendModelTask(b []byte, t *model.Task) []byte {
	b = appendF64(appendInt(b, t.ID), t.Publish)
	b = appendPoint(appendPoint(b, t.Source), t.Dest)
	b = appendF64(appendF64(b, t.StartBy), t.EndBy)
	return appendF64(appendF64(b, t.Price), t.WTP)
}

func readModelTask(r *wireReader, t *model.Task) {
	*t = model.Task{ID: r.int(), Publish: r.f64(), Source: r.point(), Dest: r.point(),
		StartBy: r.f64(), EndBy: r.f64(), Price: r.f64(), WTP: r.f64()}
}

func appendModelDriver(b []byte, d *model.Driver) []byte {
	b = appendPoint(appendPoint(appendInt(b, d.ID), d.Source), d.Dest)
	return appendF64(appendF64(appendF64(b, d.Start), d.End), d.SpeedKmh)
}

func readModelDriver(r *wireReader, d *model.Driver) {
	*d = model.Driver{ID: r.int(), Source: r.point(), Dest: r.point(),
		Start: r.f64(), End: r.f64(), SpeedKmh: r.f64()}
}

func appendDriver(b []byte, d *Driver) []byte {
	md := d.model()
	return appendF64(appendModelDriver(b, &md), d.JoinAt)
}

func readDriver(r *wireReader, d *Driver) {
	var md model.Driver
	readModelDriver(r, &md)
	*d = Driver{ID: md.ID, Source: Point(md.Source), Dest: Point(md.Dest),
		Start: md.Start, End: md.End, SpeedKmh: md.SpeedKmh, JoinAt: r.f64()}
}

func appendFingerprint(b []byte, fp *configFingerprint) []byte {
	b = appendInt(appendStr(b, fp.Policy), fp.MatchWorkers)
	b = appendBool(appendInt(appendBool(b, fp.RealTime), int(fp.Seed)), fp.Strict)
	b = appendInt(appendStr(appendF64(b, fp.BatchWindow), fp.BatchAlgo), fp.MaxPending)
	b = appendBool(b, fp.RoadNetwork != nil)
	if rn := fp.RoadNetwork; rn != nil {
		b = appendInt(appendInt(appendInt(b, rn.Rows), rn.Cols), int(rn.Seed))
		b = appendStr(appendInt(b, rn.CacheEntries), rn.Algo)
	}
	return b
}

func readFingerprint(r *wireReader) configFingerprint {
	fp := configFingerprint{Policy: r.str(), MatchWorkers: r.int(), RealTime: r.bool(),
		Seed: int64(r.int()), Strict: r.bool(), BatchWindow: r.f64(), BatchAlgo: r.str(), MaxPending: r.int()}
	if r.bool() {
		fp.RoadNetwork = &RoadNetwork{Rows: r.int(), Cols: r.int(), Seed: int64(r.int()),
			CacheEntries: r.int(), Algo: r.str()}
	}
	return fp
}

// checkVersion reads a payload's version word.
func (r *wireReader) checkVersion() int {
	v := int(r.u32())
	if r.err == nil && v != durVersion {
		r.fail(fmt.Errorf("%w: version %d, this build reads %d", errWireVersion, v, durVersion))
	}
	return v
}

// appendRecord encodes one journal record: tag, digest, then the body
// its kind calls for.
func appendRecord(b []byte, rec *walRecord) []byte {
	b = appendU64(append(b, rec2Base+rec.Kind), rec.Digest)
	switch rec.Kind {
	case recInit:
		// The fleet is most of it: room for it and the header up front,
		// so a fresh buffer is allocated once instead of doubled into
		// shape.
		b = slices.Grow(b, 512+len(rec.Init.Market.Drivers)*(wireDriver+8))
		b = appendU32(b, uint32(rec.Init.Version))
		b = appendF64(appendF64(b, rec.Init.Market.SpeedKmh), rec.Init.Market.GasPerKm)
		b = appendFingerprint(b, &rec.Init.Config)
		b = appendSlice(b, rec.Init.Market.Drivers, appendDriver)
	case recSubmit:
		mt := rec.Task.model()
		b = appendModelTask(b, &mt)
	case recAddDriver:
		b = appendDriver(b, &rec.Driver)
	case recCancel, recRetire:
		b = appendF64(appendInt(b, rec.ID), rec.At)
	case recAdvance:
		b = appendF64(b, rec.At)
	}
	return b
}

// decodeRecord decodes one journal record. The returned record's Kind
// is set even when the body fails to decode.
func decodeRecord(data []byte) (walRecord, error) {
	if len(data) == 0 {
		return walRecord{}, fmt.Errorf("dispatch: empty journal record")
	}
	if k := data[0]; k >= recInit && k <= recFinish {
		return walRecord{Kind: k}, errVersion1("record")
	}
	r := wireReader{b: data[1:]}
	rec := walRecord{Kind: data[0] - rec2Base, Digest: r.u64()}
	switch rec.Kind {
	case recInit:
		g := r // a copy: readSlice moves its reader to the heap
		rec.Init = &initRecord{Version: g.checkVersion()}
		rec.Init.Market.SpeedKmh, rec.Init.Market.GasPerKm = g.f64(), g.f64()
		rec.Init.Config = readFingerprint(&g)
		rec.Init.Market.Drivers = readSlice(&g, wireDriver+8, readDriver)
		r = g
	case recSubmit:
		var mt model.Task
		readModelTask(&r, &mt)
		rec.Task = taskOf(mt)
	case recAddDriver:
		readDriver(&r, &rec.Driver)
	case recCancel, recRetire:
		rec.ID, rec.At = r.int(), r.f64()
	case recAdvance:
		rec.At = r.f64()
	case recFinish:
	default:
		return rec, fmt.Errorf("%w %d", errWireTag, data[0])
	}
	return rec, r.finish()
}

const wireDriverState = 6 * 8

func appendDriverState(b []byte, s *sim.DriverStateSnap) []byte {
	b = appendPoint(appendF64(b, s.FreeAt), s.Loc)
	return appendInt(appendF64(appendF64(b, s.Revenue), s.Cost), s.NTasks)
}

func readDriverState(r *wireReader, s *sim.DriverStateSnap) {
	*s = sim.DriverStateSnap{FreeAt: r.f64(), Loc: r.point(), Revenue: r.f64(), Cost: r.f64(), NTasks: r.int()}
}

func appendInflight(b []byte, s *sim.InflightSnap) []byte {
	b = appendInt(appendInt(b, s.Task), s.Driver)
	return appendF64(appendDriverState(b, &s.Prev), s.Arrival)
}

func readInflight(r *wireReader, s *sim.InflightSnap) {
	s.Task, s.Driver = r.int(), r.int()
	readDriverState(r, &s.Prev)
	s.Arrival = r.f64()
}

func appendEvent(b []byte, e *sim.EventSnap) []byte {
	b = appendInt(appendInt(appendF64(b, e.Key), e.Kind), e.Seq)
	return appendInt(appendF64(b, e.At), e.Idx)
}

func readEvent(r *wireReader, e *sim.EventSnap) {
	*e = sim.EventSnap{Key: r.f64(), Kind: r.int(), Seq: r.int(), At: r.f64(), Idx: r.int()}
}

// sortedKeys sorts m's keys into the scratch keys points at; nil if none.
func sortedKeys[V any](keys *[]int, m map[int]V) []int {
	if len(m) == 0 {
		return nil
	}
	*keys = slices.AppendSeq((*keys)[:0], maps.Keys(m))
	slices.Sort(*keys)
	return *keys
}

// appendState encodes the engine's captured stream state.
func appendState(b []byte, st *sim.StreamState, keys *[]int) []byte {
	b = appendSlice(b, st.Drivers, appendModelDriver)
	b = appendSlice(b, st.States, appendDriverState)
	b = appendBools(b, st.Present)
	b = appendF64(appendU64(b, st.RNGDraws), st.Now)
	b = appendInt(appendBool(b, st.Started), st.Seq)
	b = appendSlice(b, st.Tasks, appendModelTask)
	b = appendBools(b, st.Cancelled)
	b = appendSlice(b, st.Queue, appendEvent)
	b = appendSlice(b, st.Inflight, appendInflight)
	b = appendSlice(b, st.Revert, appendInflight)
	b = appendInt(appendInt(appendInt(b, st.Res.Served), st.Res.Rejected), st.Res.Cancelled)
	b = appendU32(b, uint32(len(st.Res.Assignment)))
	for _, ti := range sortedKeys(keys, st.Res.Assignment) {
		b = appendInt(appendInt(b, ti), st.Res.Assignment[ti])
	}
	b = appendSlice(b, st.Res.DriverPaths, appendInts)
	b = appendBool(b, st.Batch != nil)
	if bs := st.Batch; bs != nil {
		b = appendF64(appendF64(appendInts(b, &bs.Batch), bs.OpenedAt), bs.CloseAt)
		b = appendInt(appendBool(b, bs.Open), bs.Cancelled)
	}
	return b
}

// readPaths cuts every path from one block that the bytes left bound,
// each capped at its own length so that an append moves it out.
func readPaths(r *wireReader) [][]int {
	block := make([]int, 0, len(r.b)/8)
	return readSlice(r, 4, func(r *wireReader, p *[]int) {
		if len(r.b) >= 4 && binary.LittleEndian.Uint32(r.b) == nilLen {
			r.b = r.b[4:]
			return
		}
		start := len(block)
		for range r.count(8) {
			block = append(block, r.int())
		}
		*p = block[start:len(block):len(block)]
	})
}

// readState decodes a state the caller owns (its paths: readPaths).
func readState(r *wireReader) *sim.StreamState {
	st := &sim.StreamState{
		Drivers:  readSlice(r, wireDriver, readModelDriver),
		States:   readSlice(r, wireDriverState, readDriverState),
		Present:  readBools(r),
		RNGDraws: r.u64(),
		Now:      r.f64(),
		Started:  r.bool(),
		Seq:      r.int(),
		Tasks:    readSlice(r, wireTask, readModelTask),
	}
	st.Cancelled = readBools(r)
	st.Queue = readSlice(r, 5*8, readEvent)
	st.Inflight = readSlice(r, 3*8+wireDriverState, readInflight)
	st.Revert = readSlice(r, 3*8+wireDriverState, readInflight)
	st.Res.Served, st.Res.Rejected, st.Res.Cancelled = r.int(), r.int(), r.int()
	n := r.count(2 * 8)
	st.Res.Assignment = make(map[int]int, n)
	for i, prev := 0, 0; i < n; i++ {
		ti, drv := r.int(), r.int()
		r.ascending(i, &prev, ti)
		st.Res.Assignment[ti] = drv
	}
	st.Res.DriverPaths = readPaths(r)
	if r.bool() {
		st.Batch = &sim.BatchSnap{}
		readInts(r, &st.Batch.Batch)
		st.Batch.OpenedAt, st.Batch.CloseAt = r.f64(), r.f64()
		st.Batch.Open, st.Batch.Cancelled = r.bool(), r.int()
	}
	return st
}

// wireAssignment is a Decided entry: key, two flags, driver, three times.
const wireAssignment = 8 + 2 + 8 + 3*8

// appendSnapshot encodes a snapshot payload: tag, version, digest, the
// market constants and config fingerprint, the service-level books,
// then the stream state. snap.State must be set.
func appendSnapshot(b []byte, snap *snapPayload, keys *[]int) []byte {
	st := snap.State
	// A close over-estimate of what follows, so a fresh buffer is
	// allocated once instead of doubled into shape.
	b = slices.Grow(b, 512+
		len(st.Drivers)*(wireDriver+wireDriverState+1+4)+
		len(st.Tasks)*(wireTask+1+2*8+8)+len(snap.Decided)*wireAssignment+
		len(st.Queue)*5*8+(len(st.Inflight)+len(st.Revert))*(3*8+wireDriverState)+len(snap.Retired)*8)
	b = appendU64(appendU32(append(b, snapTag), uint32(snap.Version)), snap.Digest)
	b = appendF64(appendF64(b, snap.SpeedKmh), snap.GasPerKm)
	b = appendFingerprint(b, &snap.Config)
	b = appendInt(b, int(snap.Shed))
	b = appendInts(b, &snap.Retired)
	b = appendU32(b, uint32(len(snap.Decided)))
	for _, id := range sortedKeys(keys, snap.Decided) {
		a := snap.Decided[id]
		b = appendInt(appendBool(appendBool(appendInt(b, id), a.Assigned), a.Pending), a.DriverID)
		b = appendF64(appendF64(appendF64(b, a.PickupBy), a.DecidedAt), a.DecideBy)
	}
	return appendState(b, st, keys)
}

// decodeSnapshot decodes a snapshot payload.
func decodeSnapshot(data []byte) (*snapPayload, error) {
	if len(data) > 0 && data[0] == '{' {
		return nil, errVersion1("snapshot")
	}
	r := wireReader{b: data}
	if tag := r.u8(); r.err == nil && tag != snapTag {
		return nil, fmt.Errorf("%w: snapshot starts with byte %#x", errWireValue, tag)
	}
	snap := &snapPayload{Version: r.checkVersion(), Digest: r.u64(), SpeedKmh: r.f64(), GasPerKm: r.f64()}
	snap.Config = readFingerprint(&r)
	snap.Shed = int64(r.int())
	readInts(&r, &snap.Retired)
	n := r.count(wireAssignment)
	snap.Decided = make(map[int]Assignment, n)
	for i, prev := 0, 0; i < n; i++ {
		a := Assignment{TaskID: r.int(), Assigned: r.bool(), Pending: r.bool(), DriverID: r.int(),
			PickupBy: r.f64(), DecidedAt: r.f64(), DecideBy: r.f64()}
		r.ascending(i, &prev, a.TaskID)
		snap.Decided[a.TaskID] = a
	}
	snap.State = readState(&r)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return snap, nil
}
