package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// These tests pin the corners the differential and property sweeps do
// not reach: policy parsing, explicit Sync, the interval syncer, repair
// of already-clean logs, snapshot fallback across every way a snapshot
// file can be damaged, and the ErrCorrupt taxonomy for damage that is
// NOT confined to the tail.

func TestFsyncPolicyStrings(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		s := p.String()
		back, err := ParseFsyncPolicy(s)
		if err != nil || back != p {
			t.Fatalf("round trip %v -> %q -> %v, %v", p, s, back, err)
		}
	}
	if got := FsyncPolicy(99).String(); got != "FsyncPolicy(99)" {
		t.Fatalf("unknown policy prints %q", got)
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy parsed")
	}
}

func TestSyncAndClosedPaths(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	// Sync on a clean log, then on a dirty one.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records != 1 || st.Syncs < 2 {
		t.Fatalf("stats %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close: %v", err)
	}
	if _, err := l.Append([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close: %v", err)
	}
	if err := l.WriteSnapshot([]byte("s")); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteSnapshot after close: %v", err)
	}
}

func TestIntervalSyncerTicks(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{Fsync: FsyncInterval, SyncInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("tick me durable")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval syncer never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAppendOversizeRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, maxRecord+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestRepairCleanAndMissing(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, payloads(3)...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := Repair(dir); n != 0 || err != nil {
		t.Fatalf("repair of a clean log: %d bytes, %v", n, err)
	}
	if _, err := Repair(t.TempDir()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("repair of an empty dir: %v", err)
	}
}

// TestSnapshotFallbackVariants: recovery walks snapshots newest-first
// and must skip, without failing, every way a snapshot file can be
// unusable — truncated, wrong magic, mislabelled LSN, size mismatch,
// bad checksum, or from a future the records do not reach — landing on
// the newest valid one.
func TestSnapshotFallbackVariants(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(5)
	appendAll(t, l, ps[:3]...)
	if err := l.WriteSnapshot([]byte("good-state")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, ps[3:]...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A zoo of broken snapshots, all with LSNs above the good one so the
	// newest-first walk tries every variant before falling back.
	mkSnap := func(lsn uint64, payload []byte, mutate func([]byte) []byte) {
		buf := make([]byte, headerLen+frameLen+len(payload))
		copy(buf[:8], snapMagic)
		binary.LittleEndian.PutUint64(buf[8:], lsn)
		binary.LittleEndian.PutUint32(buf[headerLen:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[headerLen+4:], crc32.Checksum(payload, crcTable))
		copy(buf[headerLen+frameLen:], payload)
		if mutate != nil {
			buf = mutate(buf)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(snapPattern, lsn)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mkSnap(4, []byte("truncated"), func(b []byte) []byte { return b[:headerLen] })
	mkSnap(5, []byte("bad-magic"), func(b []byte) []byte { copy(b[:8], "XXXXXXXX"); return b })
	mkSnap(6, []byte("mislabelled"), func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[8:], 999)
		return b
	})
	mkSnap(7, []byte("short-body"), func(b []byte) []byte { return b[:len(b)-2] })
	mkSnap(8, []byte("bad-crc"), func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b })
	mkSnap(100, []byte("from-the-future"), nil) // valid, but covers records the log lacks

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "good-state" || rec.SnapshotLSN != 3 {
		t.Fatalf("fell back to %q at LSN %d", rec.Snapshot, rec.SnapshotLSN)
	}
	if len(rec.Records) != 2 || !bytes.Equal(rec.Records[0].Data, ps[3]) {
		t.Fatalf("suffix: %d records", len(rec.Records))
	}
}

// TestInteriorDamageIsCorrupt: damage NOT confined to the final record
// of the final segment is ErrCorrupt — torn interior segments, broken
// headers, and gaps in the segment chain alike.
func TestInteriorDamageIsCorrupt(t *testing.T) {
	// A master log with several small segments.
	mk := func(t *testing.T) (string, []segFile) {
		dir := t.TempDir()
		l, err := Create(dir, Options{SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, payloads(9)...)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _, err := listFiles(dir)
		if err != nil || len(segs) < 3 {
			t.Fatalf("want ≥3 segments, got %d (%v)", len(segs), err)
		}
		return dir, segs
	}

	t.Run("torn-interior-segment", func(t *testing.T) {
		dir, segs := mk(t)
		sz, err := fileSize(segs[0].path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segs[0].path, sz-1); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn interior segment: %v", err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open over torn interior segment: %v", err)
		}
	})

	t.Run("bad-segment-magic", func(t *testing.T) {
		dir, segs := mk(t)
		corruptFile(t, segs[1].path, 0)
		if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bad magic: %v", err)
		}
	})

	t.Run("header-lsn-mismatch", func(t *testing.T) {
		dir, segs := mk(t)
		corruptFile(t, segs[1].path, 8)
		if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("header LSN mismatch: %v", err)
		}
	})

	t.Run("segment-chain-gap", func(t *testing.T) {
		dir, segs := mk(t)
		if err := os.Remove(segs[1].path); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("chain gap: %v", err)
		}
	})

	t.Run("header-truncated", func(t *testing.T) {
		dir, segs := mk(t)
		if err := os.Truncate(segs[1].path, headerLen-3); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated header: %v", err)
		}
	})
}

func TestCreateEdges(t *testing.T) {
	// The target path is an existing file: MkdirAll must fail typed.
	f := filepath.Join(t.TempDir(), "a-file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(f, Options{}); err == nil {
		t.Fatal("Create over a file succeeded")
	}
	// A directory holding only a snapshot still refuses Create (the
	// snapshot belongs to SOME log) and refuses Open (no segments).
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(snapPattern, 0)), []byte("s"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Options{}); !errors.Is(err, ErrExists) {
		t.Fatalf("Create over a snapshot-only dir: %v", err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open of a snapshot-only dir: %v", err)
	}
}

// TestCompleteBadRecordWithTrailingBytes: a record that fails its CRC
// but has more records AFTER it is interior corruption — ErrCorrupt,
// never the repairable ErrCorruptTail — whether the bad record sits in
// the last segment or an earlier one. Repair must refuse both.
func TestCompleteBadRecordWithTrailingBytes(t *testing.T) {
	t.Run("last-segment", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, payloads(2)...)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _, err := listFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		// First payload byte of the FIRST record, which has a complete
		// second record after it.
		corruptFile(t, segs[0].path, headerLen+frameLen)
		if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrCorruptTail) {
			t.Fatalf("bad record with trailing bytes: %v", err)
		}
		if _, err := Repair(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Repair of interior corruption: %v", err)
		}
	})
	t.Run("earlier-segment", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Create(dir, Options{SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, payloads(9)...)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _, err := listFiles(dir)
		if err != nil || len(segs) < 2 {
			t.Fatalf("want ≥2 segments, got %d (%v)", len(segs), err)
		}
		corruptFile(t, segs[0].path, headerLen+frameLen)
		if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrCorruptTail) {
			t.Fatalf("bad record in a non-last segment: %v", err)
		}
	})
}

// TestOpenTruncatesTornTail: Open over a crash artifact (incomplete
// final frame) silently drops the torn frame and resumes appending on
// the record boundary.
func TestOpenTruncatesTornTail(t *testing.T) {
	openers := map[string]func(dir string) (*Log, error){
		"open": func(dir string) (*Log, error) { return Open(dir, Options{}) },
		// The same through a Recovery already in hand: no second scan.
		"recovery-open": func(dir string) (*Log, error) {
			rec, err := Recover(dir)
			if err != nil {
				return nil, err
			}
			if !rec.TornTail || len(rec.Records) != 1 {
				return nil, fmt.Errorf("recovery sees torn=%v and %d records", rec.TornTail, len(rec.Records))
			}
			return rec.Open(Options{})
		},
	}
	for name, open := range openers {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Create(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, payloads(2)...)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, _, err := listFiles(dir)
			if err != nil {
				t.Fatal(err)
			}
			sz, err := fileSize(segs[0].path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(segs[0].path, sz-1); err != nil {
				t.Fatal(err)
			}
			l, err = open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := l.NextLSN(); got != 1 {
				t.Fatalf("after dropping the torn record NextLSN = %d, want 1", got)
			}
			if _, err := l.Append([]byte("replacement")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(dir)
			if err != nil || len(rec.Records) != 2 || string(rec.Records[1].Data) != "replacement" {
				t.Fatalf("recovery after torn-tail reopen: %v, %d records", err, len(rec.Records))
			}
		})
	}
	if _, err := new(Recovery).Open(Options{}); err == nil {
		t.Fatal("Open on a Recovery that Recover never returned succeeded")
	}
}

// TestFrameLengthNeverSizesAnAllocation: a torn final frame whose header
// claims the largest legal record is still just a torn tail — recovery
// must measure the claim against the bytes that follow, not allocate it.
func TestFrameLengthNeverSizesAnAllocation(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, payloads(3)...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frame [frameLen + 3]byte
	binary.LittleEndian.PutUint32(frame[:], maxRecord)
	if _, err := f.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := Recover(dir)
	runtime.ReadMemStats(&after)
	if err != nil || !rec.TornTail || len(rec.Records) != 3 {
		t.Fatalf("Recover = %+v, %v; want three records and a torn tail", rec, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("recovering a %d-byte segment allocated %d bytes", headerLen+3*40+len(frame), got)
	}
}

func TestOpenOnFilePath(t *testing.T) {
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f, Options{}); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Open on a file: %v", err)
	}
	if _, err := Recover(f); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Recover on a file: %v", err)
	}
}

// TestRotateIntoBlockedPath: rotation must surface startSegment
// failures through Append instead of silently writing past the bound.
func TestRotateIntoBlockedPath(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Squat on every segment name a rotation could want.
	for lsn := uint64(1); lsn < 16; lsn++ {
		if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf(segPattern, lsn)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var rotErr error
	for i := 0; i < 16; i++ {
		if _, rotErr = l.Append(make([]byte, 60)); rotErr != nil {
			break
		}
	}
	if rotErr == nil {
		t.Fatal("rotation into a blocked segment path succeeded")
	}
}

// TestSnapshotWriteFailures: both the temp-file write and the final
// rename must fail loudly (and clean up the temp file) when blocked.
func TestSnapshotWriteFailures(t *testing.T) {
	t.Run("tmp-blocked", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		appendAll(t, l, payloads(1)...)
		tmp := filepath.Join(dir, fmt.Sprintf(snapPattern, l.NextLSN())+".tmp")
		if err := os.Mkdir(tmp, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshot([]byte("s")); err == nil {
			t.Fatal("snapshot wrote through a blocked temp path")
		}
	})
	t.Run("rename-blocked", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		appendAll(t, l, payloads(1)...)
		final := filepath.Join(dir, fmt.Sprintf(snapPattern, l.NextLSN()))
		if err := os.Mkdir(final, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshot([]byte("s")); err == nil {
			t.Fatal("snapshot renamed over a directory")
		}
		if _, err := os.Stat(final + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind: %v", err)
		}
	})
}

// TestSnapshotSyncsDirtyTail: under FsyncOff a snapshot must first push
// the records it claims to cover to stable storage — observable as a
// sync on a dirty log.
func TestSnapshotSyncsDirtyTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, payloads(2)...)
	before := l.Stats().Syncs
	if err := l.WriteSnapshot([]byte("covers-2")); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Syncs <= before {
		t.Fatal("snapshot did not sync the dirty tail first")
	}
	rec, err := Recover(dir)
	if err != nil || rec.SnapshotLSN != 2 || len(rec.Records) != 0 {
		t.Fatalf("recovery after snapshot: %v, LSN %d, %d records", err, rec.SnapshotLSN, len(rec.Records))
	}
}
