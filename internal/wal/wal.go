// Package wal is an append-only, checksummed, length-prefixed
// write-ahead log with segment rotation, periodic snapshot files and
// crash recovery. It stores opaque payloads — the dispatch layer
// defines what a record means — and guarantees, per fsync policy, that
// an acknowledged Append survives a process kill (every policy: the
// record bytes reach the file descriptor before Append returns) and a
// machine crash (FsyncAlways: synced before Append returns;
// FsyncInterval: synced at least every interval; FsyncOff: whenever the
// OS flushes its page cache).
//
// On-disk layout, one directory per log:
//
//	seg-<firstLSN>.wal   header (magic, version, first LSN), then
//	                     records: u32 length, u32 CRC32-C, payload
//	snap-<LSN>.snap      header (magic, version, LSN), u32 length,
//	                     u32 CRC32-C, payload
//
// LSNs number records from 0 in append order; a snapshot at LSN L
// captures the state after applying records [0, L), so recovery loads
// the newest valid snapshot and replays only the record suffix [L, ∞).
// Recovery distinguishes a torn tail — an incomplete final record, the
// signature of a crash mid-append, dropped silently because it was
// never acknowledged as durable — from a corrupt tail (a complete final
// record whose checksum fails: flipped bits, not a torn write), which
// is reported as typed ErrCorruptTail and never dropped without an
// explicit Repair. Corruption anywhere before the final record is
// ErrCorrupt: the log is not trustworthy and no silent recovery exists.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Typed errors; match with errors.Is.
var (
	// ErrCorruptTail: the final record of the log is complete but fails
	// its checksum. Unlike a torn tail it cannot be the artifact of a
	// crashed append (those leave short frames), so it is surfaced
	// instead of silently dropped; Repair truncates it explicitly.
	ErrCorruptTail = errors.New("wal: corrupt tail record")
	// ErrCorrupt: a record before the final one fails its frame or
	// checksum, or the segment chain is inconsistent. There is no safe
	// automatic recovery.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed: the log was closed.
	ErrClosed = errors.New("wal: log closed")
	// ErrExists: Create on a directory that already holds a log.
	ErrExists = errors.New("wal: log already exists")
	// ErrNotFound: Recover/Open on a directory with no log in it.
	ErrNotFound = errors.New("wal: no log in directory")
)

// FsyncPolicy selects when appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs before every Append returns: no acknowledged
	// record is ever lost, at the price of one fsync per record.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval writes each record to the file descriptor
	// immediately (process kills lose nothing) and fsyncs on a timer:
	// a machine crash loses at most the last interval of records.
	FsyncInterval
	// FsyncOff never fsyncs on the append path; the OS page cache
	// decides. Rotation, snapshots and Close still sync.
	FsyncOff
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy converts a policy name (as printed by String) back
// into a FsyncPolicy; CLI front ends use it to parse flags.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
	}
}

// Options configures a Log. The zero value is usable: FsyncAlways,
// 64 MiB segments, 100 ms sync interval, two retained snapshots.
type Options struct {
	// Fsync selects the append durability policy.
	Fsync FsyncPolicy
	// SyncInterval is FsyncInterval's timer period; ≤0 selects 100 ms.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes; ≤0 selects 64 MiB.
	SegmentBytes int64
	// KeepSnapshots bounds how many snapshot files are retained;
	// segments fully covered by the oldest retained snapshot are
	// pruned. ≤0 selects 2.
	KeepSnapshots int
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	return o
}

const (
	segMagic    = "RSWALSG1"
	snapMagic   = "RSWALSN1"
	headerLen   = 8 + 8 // magic + first LSN (segments) / LSN (snapshots)
	frameLen    = 4 + 4 // u32 payload length + u32 CRC32-C
	maxRecord   = 64 << 20
	segPattern  = "seg-%016x.wal"
	snapPattern = "snap-%016x.snap"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log. Safe for concurrent use; appends
// serialize on an internal mutex.
type Log struct {
	mu       sync.Mutex
	dir      string
	opt      Options
	f        *os.File
	segStart uint64 // first LSN of the active segment
	segBytes int64  // bytes written to the active segment
	next     uint64 // next LSN to assign
	frame    []byte // reusable frame assembly buffer
	dirty    bool   // bytes written since the last sync
	records  uint64 // appends since Open/Create
	bytes    int64  // payload+frame bytes since Open/Create
	syncs    uint64 // fsyncs issued since Open/Create
	closed   bool
	stop     chan struct{} // interval syncer shutdown
	done     chan struct{}
}

// Create initializes a fresh log in dir (created if missing, which must
// not already contain one) and opens it for appending from LSN 0.
func Create(dir string, opt Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, snaps, err := listFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 || len(snaps) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrExists, dir)
	}
	l := &Log{dir: dir, opt: opt.withDefaults()}
	if err := l.startSegment(0); err != nil {
		return nil, err
	}
	l.startSyncer()
	return l, nil
}

// Open recovers the log in dir and opens it for appending after the
// last valid record. A torn tail (crash artifact) is truncated away; a
// corrupt tail is refused with ErrCorruptTail (Repair drops it
// explicitly). New records continue the LSN sequence.
func Open(dir string, opt Options) (*Log, error) {
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	return st.open(opt)
}

// Open opens the recovered log for appending after its last valid
// record, exactly as the package-level Open would, without scanning the
// directory a second time. The log must not have been written to since
// Recover returned rec.
func (rec *Recovery) Open(opt Options) (*Log, error) {
	if rec.scan == nil {
		return nil, fmt.Errorf("wal: Open on a Recovery that Recover did not return")
	}
	return rec.scan.open(opt)
}

// open resumes appending at the end of a scanned log.
func (st *scanState) open(opt Options) (*Log, error) {
	l := &Log{dir: st.dir, opt: opt.withDefaults()}
	if st.tornSeg != "" {
		// Drop the unacknowledged torn frame so the segment ends on a
		// record boundary again, then continue appending to it.
		if err := os.Truncate(st.tornSeg, st.tornOff); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	last := st.segs[len(st.segs)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segStart = last.firstLSN
	l.segBytes = end
	l.next = st.next
	l.startSyncer()
	return l, nil
}

// startSegment seals nothing and opens a fresh segment whose first
// record will be LSN first. Caller holds the mutex (or owns l solely).
func (l *Log) startSegment(first uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf(segPattern, first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segStart = first
	l.segBytes = headerLen
	l.next = first
	return nil
}

func (l *Log) startSyncer() {
	if l.opt.Fsync != FsyncInterval {
		return
	}
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		t := time.NewTicker(l.opt.SyncInterval)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				l.mu.Lock()
				if !l.closed && l.dirty {
					l.f.Sync()
					l.syncs++
					l.dirty = false
				}
				l.mu.Unlock()
			}
		}
	}()
}

// Append writes one record and returns its LSN. The record bytes reach
// the file descriptor before Append returns under every policy; under
// FsyncAlways they are also synced to stable storage.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d byte bound", len(payload), maxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.segBytes >= l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	need := frameLen + len(payload)
	if cap(l.frame) < need {
		l.frame = make([]byte, need)
	}
	frame := l.frame[:need]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[frameLen:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.segBytes += int64(need)
	l.dirty = true
	l.records++
	l.bytes += int64(need)
	lsn := l.next
	l.next++
	if l.opt.Fsync == FsyncAlways {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
		l.syncs++
		l.dirty = false
	}
	return lsn, nil
}

// rotate seals the active segment (sync + close) and opens the next
// one. Caller holds the mutex.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.syncs++
	l.dirty = false
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.startSegment(l.next)
}

// Sync forces everything appended so far to stable storage, whatever
// the policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.syncs++
	l.dirty = false
	return nil
}

// NextLSN returns the LSN the next Append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Stats reports append-path counters since the log was opened.
type Stats struct {
	Records uint64 // records appended
	Bytes   int64  // frame bytes appended
	Syncs   uint64 // fsyncs issued
}

// Stats returns the log's append-path counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Records: l.records, Bytes: l.bytes, Syncs: l.syncs}
}

// WriteSnapshot atomically persists a snapshot of the state after every
// record appended so far (its LSN is NextLSN), then prunes snapshots
// beyond the retention bound and any segment fully covered by the
// oldest retained snapshot. The snapshot reaches stable storage before
// WriteSnapshot returns.
func (l *Log) WriteSnapshot(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// The snapshot claims to cover every appended record; make that
	// true on stable storage before the snapshot itself lands.
	if l.dirty {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.syncs++
		l.dirty = false
	}
	lsn := l.next
	final := filepath.Join(l.dir, fmt.Sprintf(snapPattern, lsn))
	tmp := final + ".tmp"
	var hdr [headerLen + frameLen]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:], lsn)
	binary.LittleEndian.PutUint32(hdr[headerLen:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[headerLen+4:], crc32.Checksum(payload, crcTable))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Header and payload go out as two writes: the payload can be
	// megabytes, and nothing reads the file before the rename below.
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(payload)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(l.dir)
	l.prune()
	return nil
}

// prune drops snapshots beyond the retention bound and segments whose
// every record is covered by the oldest retained snapshot. Best
// effort: pruning failures never fail the snapshot that triggered
// them. Caller holds the mutex.
func (l *Log) prune() {
	segs, snaps, err := listFiles(l.dir)
	if err != nil || len(snaps) == 0 {
		return
	}
	keep := l.opt.KeepSnapshots
	if len(snaps) > keep {
		for _, s := range snaps[:len(snaps)-keep] {
			os.Remove(s.path)
		}
		snaps = snaps[len(snaps)-keep:]
	}
	oldest := snaps[0].lsn
	// A segment is disposable when the next segment starts at or below
	// the oldest retained snapshot LSN (so every record in it is
	// covered) — never the active segment.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstLSN <= oldest && segs[i].firstLSN != l.segStart {
			os.Remove(segs[i].path)
		}
	}
}

// Close flushes, syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if serr := l.f.Sync(); serr != nil {
		err = fmt.Errorf("wal: %w", serr)
	} else {
		l.syncs++
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	stop, done := l.stop, l.done
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// syncDir best-effort fsyncs a directory so a rename is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
