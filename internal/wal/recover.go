package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Record is one recovered log entry.
type Record struct {
	LSN  uint64
	Data []byte
}

// Recovery is everything a crashed process needs to rebuild state: the
// newest valid snapshot (if any) and the record suffix appended after
// it, in LSN order.
type Recovery struct {
	// Snapshot is the newest valid snapshot payload, nil when the log
	// has none. It covers records [0, SnapshotLSN).
	Snapshot    []byte
	SnapshotLSN uint64
	// Records holds the suffix [SnapshotLSN, NextLSN) to replay on top
	// of the snapshot.
	Records []Record
	// NextLSN is where appending resumes.
	NextLSN uint64
	// TornTail reports that the last segment ended in an incomplete
	// frame — the signature of a crash mid-append — which recovery
	// drops (Open truncates it away).
	TornTail bool

	scan *scanState // where Open resumes; its records live in Records
}

// Recover scans the log in dir without modifying it. A torn tail is
// reported via Recovery.TornTail; a complete final record with a bad
// checksum returns ErrCorruptTail; corruption before the final record
// returns ErrCorrupt.
func Recover(dir string) (*Recovery, error) {
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{NextLSN: st.next, TornTail: st.tornSeg != "", scan: st}
	// Walk snapshots newest-first until one parses; a truncated or
	// corrupt newer snapshot (crash during WriteSnapshot never leaves
	// one, but disks do) falls back to the one before it.
	for i := len(st.snaps) - 1; i >= 0; i-- {
		payload, err := readSnapshot(st.snaps[i].path, st.snaps[i].lsn)
		if err != nil {
			continue
		}
		if st.snaps[i].lsn > st.next {
			// Snapshot from a future the log doesn't reach — the tail
			// segments it covered are gone. Unusable.
			continue
		}
		rec.Snapshot = payload
		rec.SnapshotLSN = st.snaps[i].lsn
		break
	}
	for _, r := range st.records {
		if r.LSN >= rec.SnapshotLSN {
			rec.Records = append(rec.Records, r)
		}
	}
	st.records = nil
	return rec, nil
}

// Repair truncates a corrupt final record (ErrCorruptTail) off the last
// segment, losing exactly that record. It refuses to touch a log whose
// corruption is not confined to the tail. Returns the number of bytes
// dropped (0 when the log was already clean).
func Repair(dir string) (int64, error) {
	st, err := scanDir(dir)
	if err == nil {
		return 0, nil
	}
	if st == nil || st.badSeg == "" {
		return 0, err
	}
	end, serr := fileSize(st.badSeg)
	if serr != nil {
		return 0, serr
	}
	if terr := os.Truncate(st.badSeg, st.badOff); terr != nil {
		return 0, fmt.Errorf("wal: repairing tail: %w", terr)
	}
	return end - st.badOff, nil
}

type segFile struct {
	path     string
	firstLSN uint64
}

type snapFile struct {
	path string
	lsn  uint64
}

// scanState is the result of a full directory scan.
type scanState struct {
	dir     string
	segs    []segFile
	snaps   []snapFile
	records []Record
	next    uint64
	tornSeg string // segment holding a torn (incomplete) tail frame
	tornOff int64  // offset at which to truncate it
	badSeg  string // segment holding a corrupt-tail record (scan errored)
	badOff  int64  // offset of that record's frame
}

// listFiles enumerates segment and snapshot files, sorted by LSN.
func listFiles(dir string) ([]segFile, []snapFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segFile
	var snaps []snapFile
	for _, ent := range ents {
		name := ent.Name()
		var lsn uint64
		if n, _ := fmt.Sscanf(name, segPattern, &lsn); n == 1 {
			segs = append(segs, segFile{path: filepath.Join(dir, name), firstLSN: lsn})
		} else if n, _ := fmt.Sscanf(name, snapPattern, &lsn); n == 1 {
			snaps = append(snaps, snapFile{path: filepath.Join(dir, name), lsn: lsn})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn < snaps[j].lsn })
	return segs, snaps, nil
}

// scanDir reads every live segment front to back, validating the frame
// chain. On ErrCorruptTail the returned state still carries badSeg /
// badOff so Repair can act on it.
func scanDir(dir string) (*scanState, error) {
	segs, snaps, err := listFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, dir)
	}
	st := &scanState{dir: dir, segs: segs, snaps: snaps}
	expect := segs[0].firstLSN
	for i, seg := range segs {
		if seg.firstLSN != expect {
			return nil, fmt.Errorf("%w: segment %s starts at LSN %d, want %d", ErrCorrupt, seg.path, seg.firstLSN, expect)
		}
		last := i == len(segs)-1
		n, err := scanSegment(seg, last, st)
		if err != nil {
			return st, err
		}
		expect += n
	}
	st.next = expect
	return st, nil
}

// scanSegment appends seg's records to st and returns how many it held.
// Only the final segment may legally end early (torn tail). The segment
// is read in one piece and the records are slices of it, so a frame
// header's length field is only ever measured against bytes that are
// there — it never sizes an allocation.
func scanSegment(seg segFile, last bool, st *scanState) (uint64, error) {
	buf, err := os.ReadFile(seg.path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if len(buf) < headerLen {
		return 0, fmt.Errorf("%w: segment %s header is %d bytes", ErrCorrupt, seg.path, len(buf))
	}
	if string(buf[:8]) != segMagic {
		return 0, fmt.Errorf("%w: segment %s has bad magic", ErrCorrupt, seg.path)
	}
	if got := binary.LittleEndian.Uint64(buf[8:]); got != seg.firstLSN {
		return 0, fmt.Errorf("%w: segment %s header LSN %d does not match its name", ErrCorrupt, seg.path, got)
	}
	var count uint64
	for rest := buf[headerLen:]; len(rest) > 0; {
		off := int64(len(buf) - len(rest))
		if len(rest) < frameLen {
			return count, tailStop(seg, last, off, st, int64(len(rest)), "frame header")
		}
		size := binary.LittleEndian.Uint32(rest[0:])
		want := binary.LittleEndian.Uint32(rest[4:])
		if size > maxRecord {
			// An absurd length is bit corruption of the frame itself:
			// treat like a checksum failure at this position.
			return count, badStop(seg, last, off, st, "frame length")
		}
		end := frameLen + int(size)
		if len(rest) < end {
			return count, tailStop(seg, last, off, st, int64(len(rest)), "record body")
		}
		payload := rest[frameLen:end:end]
		if crc32.Checksum(payload, crcTable) != want {
			return count, badStop(seg, last, off, st, "checksum")
		}
		st.records = append(st.records, Record{LSN: seg.firstLSN + count, Data: payload})
		count++
		rest = rest[end:]
	}
	return count, nil
}

// tailStop handles an incomplete frame: legal (and recoverable) only at
// the very end of the last segment.
func tailStop(seg segFile, last bool, off int64, st *scanState, short int64, what string) error {
	if !last {
		return fmt.Errorf("%w: segment %s truncated mid-log (%s cut %d bytes in at offset %d)", ErrCorrupt, seg.path, what, short, off)
	}
	st.tornSeg = seg.path
	st.tornOff = off
	return nil
}

// badStop handles a complete-but-invalid record: ErrCorruptTail when it
// is the final record of the log, ErrCorrupt otherwise.
func badStop(seg segFile, last bool, off int64, st *scanState, what string) error {
	if !last {
		return fmt.Errorf("%w: segment %s fails its %s at offset %d", ErrCorrupt, seg.path, what, off)
	}
	// Is anything after this record? Then the corruption is interior.
	end, err := fileSize(seg.path)
	if err != nil {
		return err
	}
	rest, err := recordEnd(seg.path, off)
	if err != nil {
		return err
	}
	if rest < end {
		return fmt.Errorf("%w: segment %s fails its %s at offset %d with %d trailing bytes", ErrCorrupt, seg.path, what, off, end-rest)
	}
	st.badSeg = seg.path
	st.badOff = off
	return fmt.Errorf("%w: segment %s record at offset %d fails its %s", ErrCorruptTail, seg.path, off, what)
}

// recordEnd returns the offset just past the frame starting at off.
func recordEnd(path string, off int64) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	var frame [frameLen]byte
	if _, err := f.ReadAt(frame[:], off); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	return off + frameLen + int64(binary.LittleEndian.Uint32(frame[0:])), nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	return fi.Size(), nil
}

// readSnapshot parses one snapshot file, validating magic, LSN and
// checksum.
func readSnapshot(path string, wantLSN uint64) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if len(buf) < headerLen+frameLen {
		return nil, fmt.Errorf("%w: snapshot %s truncated", ErrCorrupt, path)
	}
	if string(buf[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot %s has bad magic", ErrCorrupt, path)
	}
	if got := binary.LittleEndian.Uint64(buf[8:]); got != wantLSN {
		return nil, fmt.Errorf("%w: snapshot %s header LSN %d does not match its name", ErrCorrupt, path, got)
	}
	size := binary.LittleEndian.Uint32(buf[headerLen:])
	want := binary.LittleEndian.Uint32(buf[headerLen+4:])
	payload := buf[headerLen+frameLen:]
	if uint32(len(payload)) != size {
		return nil, fmt.Errorf("%w: snapshot %s body is %d bytes, header says %d", ErrCorrupt, path, len(payload), size)
	}
	if crc32.Checksum(payload, crcTable) != want {
		return nil, fmt.Errorf("%w: snapshot %s fails its checksum", ErrCorrupt, path)
	}
	return payload, nil
}
