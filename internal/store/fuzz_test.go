package store

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// fuzzSeedLog builds one segment of n frames — results, with a kind-2
// checkpoint frame every third record and a kind-3 tombstone after
// them, as earlier versions wrote — and returns its bytes and the
// offset of every frame.
func fuzzSeedLog(n int) ([]byte, []int64) {
	var frames []frame
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			frames = append(frames, frame{kind: 2, key: fmt.Sprintf("sweep-%02d", i), val: []byte(fmt.Sprintf(`{"points":%d}`, i))})
		} else {
			frames = append(frames, frame{kind: kindResult, key: fmt.Sprintf("key-%02d", i), meta: []byte("meta"), val: []byte(fmt.Sprintf("value-%02d", i))})
		}
	}
	frames = append(frames, frame{kind: 3, key: "sweep-02"})
	var offsets []int64
	off := int64(len(segMagic))
	for i := range frames {
		offsets = append(offsets, off)
		off += int64(frames[i].encodedLen())
	}
	return rawSegment(frames...), offsets
}

// FuzzStoreOpen writes arbitrary bytes as one or two segment files and
// opens the store. Open must return a store or an error, never panic;
// the damage it repairs or skips must be counted in Stats exactly as
// the read-only Verify sees it; and every record Get serves must be a
// whole CRC-valid frame on disk.
func FuzzStoreOpen(f *testing.F) {
	log, offsets := fuzzSeedLog(5)
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
			st.Results != rep.Results {
			t.Fatalf("stats %+v disagree with verify %+v", st, rep)
		}

		s.mu.RLock()
		live := make(map[string]ref, len(s.results))
		for k, r := range s.results {
			live[k] = r
		}
		s.mu.RUnlock()
		for k, r := range live {
			meta, val, ok := s.GetRecord(k)
			if !ok {
				t.Fatalf("indexed %q not served", k)
			}
			disk, err := os.ReadFile(segPath(dir, r.seg))
			if err != nil {
				t.Fatal(err)
			}
			want := (&frame{kind: kindResult, key: k, meta: meta, val: val}).appendTo(nil)
			if r.off+int64(r.n) > int64(len(disk)) || !bytes.Equal(disk[r.off:r.off+int64(r.n)], want) {
				t.Fatalf("%q served bytes that are not its CRC-valid frame on disk", k)
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
