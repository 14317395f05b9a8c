package store

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// fuzzSeedLog writes n records into a fresh store and returns its one
// segment's bytes and the offset of every frame.
func fuzzSeedLog(f *testing.F, n int) ([]byte, []int64) {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var offsets []int64
	for i := 0; i < n; i++ {
		offsets = append(offsets, s.Stats().SizeBytes)
		if i%3 == 2 {
			err = s.PutCheckpoint(fmt.Sprintf("sweep-%02d", i), []byte(fmt.Sprintf(`{"points":%d}`, i)))
		} else {
			err = s.Put(fmt.Sprintf("key-%02d", i), []byte("meta"), []byte(fmt.Sprintf("value-%02d", i)))
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	if err := s.DeleteCheckpoint("sweep-02"); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	buf, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		f.Fatal(err)
	}
	return buf, offsets
}

// FuzzStoreOpen writes arbitrary bytes as one or two segment files and
// opens the store. Open must return a store or an error, never panic;
// the damage it repairs or skips must be counted in Stats exactly as
// the read-only Verify sees it; and every record Get serves must be a
// whole CRC-valid frame on disk.
func FuzzStoreOpen(f *testing.F) {
	log, offsets := fuzzSeedLog(f, 5)
	flipped := bytes.Clone(log)
	flipped[offsets[2]] ^= 0xff // CRC byte of a mid-log frame
	badHeader := bytes.Clone(log)
	for i := 0; i < 12; i++ {
		badHeader[len(segMagic)+5+i] = 0xff // length fields of the first frame
	}
	for _, seed := range []struct {
		seg1, seg2 []byte
		two        bool
	}{
		{log, nil, false},
		{log[:len(log)-3], nil, false}, // torn tail
		{flipped, nil, false},
		{nil, nil, false},
		{[]byte(segMagic[:3]), nil, false},
		{[]byte(segMagic), nil, false},
		{badHeader, nil, false},
		{log, log[:offsets[1]+4], true},
		{badHeader, log, true},
		{[]byte("notaseg!"), flipped, true},
	} {
		f.Add(seed.seg1, seed.seg2, seed.two)
	}

	f.Fuzz(func(t *testing.T, seg1, seg2 []byte, two bool) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), seg1, 0o644); err != nil {
			t.Fatal(err)
		}
		if two {
			if err := os.WriteFile(segPath(dir, 2), seg2, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return
		}
		defer s.Close()

		st := s.Stats()
		if st.RecoveredRecords != uint64(rep.ValidRecords) || st.CorruptRecords != uint64(rep.CorruptRecords) ||
			st.CorruptBytes != uint64(rep.CorruptBytes) || st.TruncatedBytes != uint64(rep.TornTailBytes) ||
			st.Results != rep.Results || st.Checkpoints != rep.Checkpoints {
			t.Fatalf("stats %+v disagree with verify %+v", st, rep)
		}

		s.mu.RLock()
		live := make(map[string]ref, len(s.results)+len(s.checks))
		for k, r := range s.results {
			live["r"+k] = r
		}
		for k, r := range s.checks {
			live["c"+k] = r
		}
		s.mu.RUnlock()
		for k, r := range live {
			var meta, val []byte
			var ok bool
			kind := kindResult
			if k[0] == 'r' {
				meta, val, ok = s.GetRecord(k[1:])
			} else {
				kind = kindCheckpoint
				val, ok = s.GetCheckpoint(k[1:])
			}
			if !ok {
				t.Fatalf("indexed %q not served", k[1:])
			}
			disk, err := os.ReadFile(segPath(dir, r.seg))
			if err != nil {
				t.Fatal(err)
			}
			want := (&frame{kind: kind, key: k[1:], meta: meta, val: val}).appendTo(nil)
			if r.off+int64(r.n) > int64(len(disk)) || !bytes.Equal(disk[r.off:r.off+int64(r.n)], want) {
				t.Fatalf("%q served bytes that are not its CRC-valid frame on disk", k[1:])
			}
		}

		// The recovered log takes appends.
		if err := s.Put("fuzz-after-open", nil, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get("fuzz-after-open"); !ok || string(got) != "ok" {
			t.Fatalf("append after recovery read back %q, %v", got, ok)
		}
	})
}
