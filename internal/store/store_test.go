package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openT opens a store in dir, failing the test on error and closing on
// cleanup.
func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func put(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte("meta-"+key), []byte(val)); err != nil {
		t.Fatal(err)
	}
}

func wantGet(t *testing.T, s *Store, key, val string) {
	t.Helper()
	got, ok := s.Get(key)
	if !ok {
		t.Fatalf("Get(%q) missing, want %q", key, val)
	}
	if string(got) != val {
		t.Fatalf("Get(%q) = %q, want %q", key, got, val)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	put(t, s, "aaaa", "result-a")
	put(t, s, "bbbb", "result-b")
	put(t, s, "aaaa", "result-a2") // supersede: last record wins
	wantGet(t, s, "aaaa", "result-a2")
	wantGet(t, s, "bbbb", "result-b")
	if _, ok := s.Get("cccc"); ok {
		t.Fatal("Get of unknown key succeeded")
	}
	meta, val, ok := s.GetRecord("bbbb")
	if !ok || string(meta) != "meta-bbbb" || string(val) != "result-b" {
		t.Fatalf("GetRecord = %q/%q/%v", meta, val, ok)
	}
	st := s.Stats()
	if st.Results != 2 || st.Appends != 3 || st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.Close()

	// Reopen: the index is rebuilt from the log, latest records win.
	s2 := openT(t, dir, Options{})
	wantGet(t, s2, "aaaa", "result-a2")
	wantGet(t, s2, "bbbb", "result-b")
	st = s2.Stats()
	if st.RecoveredRecords != 3 || st.Results != 2 {
		t.Fatalf("reopen stats = %+v", st)
	}
	if !clean(t, dir) {
		t.Fatal("verify found damage in a healthy log")
	}
}

// rawSegment assembles a segment file from frames, bypassing the
// Store: the way to write the checkpoint (kind 2) and tombstone (kind
// 3) frames that earlier versions appended and this one never does.
func rawSegment(frames ...frame) []byte {
	buf := []byte(segMagic)
	for i := range frames {
		buf = frames[i].appendTo(buf)
	}
	return buf
}

// TestStoreOpensRetiredCheckpointFrames: a log written by an earlier
// version holds sweep checkpoints and their tombstones between its
// results. It opens with every result intact, verifies clean, and
// compacts down to result frames only.
func TestStoreOpensRetiredCheckpointFrames(t *testing.T) {
	dir := t.TempDir()
	seg := rawSegment(
		frame{kind: kindResult, key: "run-a", meta: []byte("spec-a"), val: []byte("result-a")},
		frame{kind: 2, key: "sweep", val: []byte(`{"total":32,"points":{"0":{}}}`)},
		frame{kind: kindResult, key: "run-b", val: []byte("result-b")},
		frame{kind: 2, key: "sweep", val: []byte(`{"total":32,"points":{"0":{},"1":{}}}`)},
		frame{kind: kindResult, key: "sweep", val: []byte("grid")},
		frame{kind: 3, key: "sweep"},
		frame{kind: 2, key: "interrupted", val: []byte(`{"total":32,"points":{"3":{}}}`)},
		frame{kind: kindResult, key: "run-a", meta: []byte("spec-a"), val: []byte("result-a2")},
	)
	if err := os.WriteFile(segPath(dir, 1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.ValidRecords != 8 || rep.Results != 3 || rep.SupersededRecords != 1 {
		t.Fatalf("verify = %+v, want clean with 8 frames, 3 results, 1 superseded", rep)
	}

	s := openT(t, dir, Options{})
	if st := s.Stats(); st.Results != 3 || st.RecoveredRecords != 8 || st.CorruptRecords != 0 || st.TruncatedRecords != 0 {
		t.Fatalf("stats = %+v", st)
	}
	wantGet(t, s, "run-a", "result-a2")
	wantGet(t, s, "run-b", "result-b")
	wantGet(t, s, "sweep", "grid")
	if _, ok := s.Get("interrupted"); ok {
		t.Fatal("a checkpoint frame was served as a result")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	nums, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nums {
		buf, err := os.ReadFile(segPath(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		walkSegment(buf, i == len(nums)-1, func(fr frame, off, _ int) {
			if fr.kind != kindResult {
				t.Errorf("segment %d offset %d: kind-%d frame %q survived compaction", n, off, fr.kind, fr.key)
			}
		})
	}
	if rep, err := Verify(dir); err != nil || !rep.Clean() || rep.ValidRecords != 3 || rep.Results != 3 {
		t.Fatalf("verify after compaction = %+v, %v", rep, err)
	}
	s = openT(t, dir, Options{})
	wantGet(t, s, "run-a", "result-a2")
	wantGet(t, s, "run-b", "result-b")
	wantGet(t, s, "sweep", "grid")
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	s := openT(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d-%s", i, bytes.Repeat([]byte("x"), 40)))
	}
	st := s.Stats()
	if st.Segments < 4 {
		t.Fatalf("rotation produced only %d segments", st.Segments)
	}
	for i := 0; i < 20; i++ {
		wantGet(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d-%s", i, bytes.Repeat([]byte("x"), 40)))
	}
	s.Close()

	// Every record readable across a reopen of the multi-segment log.
	s = openT(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		wantGet(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d-%s", i, bytes.Repeat([]byte("x"), 40)))
	}
}

// clean verifies dir read-only and reports whether no damage was found.
func clean(t *testing.T, dir string) bool {
	t.Helper()
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Clean()
}

// lastSegment returns the path and size of the newest segment file.
func lastSegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	nums, err := listSegments(dir)
	if err != nil || len(nums) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	path := segPath(dir, nums[len(nums)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, fi.Size()
}

// seedStore writes records into a fresh store and returns the size of
// the log before the final frame was appended, plus the final log size.
func seedStore(t *testing.T, dir string, n int) (beforeLast, total int64) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i == n-1 {
			beforeLast = s.Stats().SizeBytes
		}
		if err := s.Put(fmt.Sprintf("key-%02d", i), nil, []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	total = s.Stats().SizeBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return beforeLast, total
}

// TestStoreRecoveryTornTail truncates the log mid-record at every byte
// offset of the last frame and asserts each recovery drops exactly the
// torn record, keeps everything before it, and counts the damage.
func TestStoreRecoveryTornTail(t *testing.T) {
	seedDir := t.TempDir()
	beforeLast, total := seedStore(t, seedDir, 5)
	if beforeLast <= 0 || total <= beforeLast {
		t.Fatalf("seed sizes: beforeLast=%d total=%d", beforeLast, total)
	}
	path, _ := lastSegment(t, seedDir)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := beforeLast + 1; cut < total; cut++ {
		dir := t.TempDir()
		dst := filepath.Join(dir, filepath.Base(path))
		if err := os.WriteFile(dst, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		rep, err := Verify(dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if rep.TornTailBytes != int(cut-beforeLast) || rep.ValidRecords != 4 {
			t.Fatalf("cut=%d: verify = %+v", cut, rep)
		}

		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		st := s.Stats()
		if st.TruncatedRecords != 1 || st.TruncatedBytes != uint64(cut-beforeLast) {
			t.Fatalf("cut=%d: stats = %+v", cut, st)
		}
		if st.Results != 4 || st.RecoveredRecords != 4 {
			t.Fatalf("cut=%d: indexed %d results, recovered %d", cut, st.Results, st.RecoveredRecords)
		}
		for i := 0; i < 4; i++ {
			wantGet(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d", i))
		}
		if _, ok := s.Get("key-04"); ok {
			t.Fatalf("cut=%d: torn record served", cut)
		}
		// The truncated log accepts new appends and recovers clean.
		if err := s.Put("key-04", nil, []byte("value-04-rewritten")); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		s.Close()
		if !clean(t, dir) {
			t.Fatalf("cut=%d: log still damaged after truncation+append", cut)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		wantGet(t, s2, "key-04", "value-04-rewritten")
		s2.Close()
	}
}

// TestStoreRecoveryBitFlip flips one CRC byte of a mid-log record and
// asserts recovery skips exactly that record, keeps its neighbours and
// counts the corruption.
func TestStoreRecoveryBitFlip(t *testing.T) {
	dir := t.TempDir()
	var offsets []int64
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		offsets = append(offsets, s.Stats().SizeBytes)
		if err := s.Put(fmt.Sprintf("key-%02d", i), nil, []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip a CRC byte of the middle record (frame CRC is the first field).
	path, _ := lastSegment(t, dir)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[offsets[2]] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptRecords != 1 || rep.ValidRecords != 4 || rep.TornTailBytes != 0 {
		t.Fatalf("verify = %+v", rep)
	}

	s2 := openT(t, dir, Options{})
	st := s2.Stats()
	if st.CorruptRecords != 1 || st.Results != 4 || st.TruncatedRecords != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, i := range []int{0, 1, 3, 4} {
		wantGet(t, s2, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d", i))
	}
	if _, ok := s2.Get("key-02"); ok {
		t.Fatal("bit-flipped record served")
	}
	// Compaction drops the corpse: the rewritten log is clean.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if !clean(t, dir) {
		t.Fatal("log damaged after compaction")
	}
}

// TestStoreRecoveryEmptySegment covers zero-byte and header-only
// segment files (a crash between creating a segment and its first
// append).
func TestStoreRecoveryEmptySegment(t *testing.T) {
	for _, tc := range []struct {
		name    string
		content []byte
	}{
		{"zero-byte", nil},
		{"half-header", []byte(segMagic[:3])},
		{"header-only", []byte(segMagic)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(segPath(dir, 1), tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openT(t, dir, Options{})
			st := s.Stats()
			if st.Results != 0 || st.CorruptRecords != 0 {
				t.Fatalf("stats = %+v", st)
			}
			// The segment is usable immediately.
			put(t, s, "aaaa", "after-recovery")
			wantGet(t, s, "aaaa", "after-recovery")
			s.Close()
			if !clean(t, dir) {
				t.Fatal("damage after recovering empty segment")
			}
		})
	}
}

// TestStoreCompaction: superseded records are dropped, space is
// reclaimed, and the compacted log reopens to the identical index.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 512})
	for i := 0; i < 10; i++ {
		put(t, s, fmt.Sprintf("key-%02d", i%3), fmt.Sprintf("gen-%02d", i)) // 3 live, 7 superseded
	}
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.SizeBytes >= before.SizeBytes {
		t.Fatalf("compaction grew the log: %d → %d", before.SizeBytes, after.SizeBytes)
	}
	if after.Compactions != 1 || after.ReclaimedBytes == 0 {
		t.Fatalf("stats = %+v", after)
	}
	if after.Results != 3 {
		t.Fatalf("live set = %d results", after.Results)
	}
	// Live data still served, and the store still accepts appends.
	wantGet(t, s, "key-00", "gen-09")
	wantGet(t, s, "key-01", "gen-07")
	wantGet(t, s, "key-02", "gen-08")
	put(t, s, "post-compact", "new")
	s.Close()

	// Reopen after compaction: identical index, no damage.
	s2 := openT(t, dir, Options{SegmentBytes: 512})
	st := s2.Stats()
	if st.Results != 4 || st.CorruptRecords != 0 || st.TruncatedRecords != 0 {
		t.Fatalf("reopen stats = %+v", st)
	}
	wantGet(t, s2, "key-00", "gen-09")
	wantGet(t, s2, "post-compact", "new")
	if !clean(t, dir) {
		t.Fatal("compacted log damaged")
	}
}

// TestStoreCorruptHeaderAbandonsSegment: when a mid-log length field is
// destroyed, the scanner cannot resync; the remainder of that segment
// is dropped and counted, but other segments stay fully readable.
func TestStoreCorruptHeaderAbandonsSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), nil, []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("want ≥3 segments, got %d", st.Segments)
	}
	s.Close()

	// Destroy the first record's length fields in the FIRST segment.
	path := segPath(dir, 1)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		buf[len(segMagic)+5+i] = 0xff
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{SegmentBytes: 100})
	st = s2.Stats()
	if st.CorruptRecords == 0 || st.CorruptBytes == 0 {
		t.Fatalf("corruption uncounted: %+v", st)
	}
	// Records in later segments are unaffected.
	wantGet(t, s2, "key-07", "value-07")
}
