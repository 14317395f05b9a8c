// Package store is the durable run store under the serve layer: an
// embedded, dependency-free, append-only segment log of
// (digest, spec, result) records with per-record CRC32C framing and an
// in-memory hash index rebuilt on open.
//
// Simulations are deterministic in their spec digest (the replay and
// cluster parity tests assert byte-identical results), which makes
// results perfectly content-addressable: a record written once is valid
// forever, so the store never needs update-in-place, locking across
// processes, or a background WAL — the log IS the database. Recovery is
// correspondingly simple: replay every segment, index the last record
// per key, truncate a torn tail frame (the signature of a crash
// mid-append) instead of failing, and skip+count mid-log frames whose
// CRC no longer matches.
//
// The log holds result records only. A sweep stores each grid point
// under its own run digest, so a restarted server resumes an
// interrupted sweep by looking its points up, with no progress record
// of its own. Compaction rewrites the live record set into fresh
// segments and deletes the rest; because recovery is last-record-wins
// in segment order, a crash anywhere inside compaction leaves a log
// that recovers to the same index.
package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Options tunes a Store.
type Options struct {
	// SegmentBytes caps one segment file; the log rotates to a new
	// segment when an append would grow the active one past it.
	// Default 8 MiB.
	SegmentBytes int64
	// Sync fsyncs after every append. Durability default is
	// process-crash-safe (the OS page cache survives a SIGKILL), not
	// power-loss-safe; set Sync for the latter at a large latency cost.
	Sync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// Stats is a snapshot of the store's counters. Lifetime counters
// (appends, hits, compactions, damage) survive for the process, not
// across restarts; sizes and record counts describe the current log.
type Stats struct {
	// Segments / SizeBytes describe the on-disk log right now.
	Segments  int   `json:"segments"`
	SizeBytes int64 `json:"size_bytes"`
	// Results counts live (latest) result records.
	Results int `json:"results"`
	// Appends / AppendedBytes count records written by this process.
	Appends       uint64 `json:"appends"`
	AppendedBytes uint64 `json:"appended_bytes"`
	// Hits / Misses count Get and GetRecord outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// RecoveredRecords counts valid frames replayed at open, including
	// the retired checkpoint frames of an older log, which it skips.
	RecoveredRecords uint64 `json:"recovered_records"`
	// TruncatedRecords / TruncatedBytes count the torn tail dropped at
	// open by truncating the last segment back to its last good frame.
	TruncatedRecords uint64 `json:"truncated_records"`
	TruncatedBytes   uint64 `json:"truncated_bytes"`
	// CorruptRecords counts mid-log frames skipped on CRC mismatch;
	// CorruptBytes counts unreadable segment remainders abandoned when
	// a damaged header made resync impossible.
	CorruptRecords uint64 `json:"corrupt_records"`
	CorruptBytes   uint64 `json:"corrupt_bytes"`
	// Compactions / ReclaimedBytes count Compact calls and the log
	// shrinkage they achieved.
	Compactions    uint64 `json:"compactions"`
	ReclaimedBytes uint64 `json:"reclaimed_bytes"`
}

// ref locates one live record inside the log.
type ref struct {
	seg int
	off int64
	n   int // full frame length
}

// Store is the durable run store. Safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.RWMutex
	files   map[int]*os.File // open segment handles, active included
	active  int              // active (append) segment number
	size    int64            // active segment size
	results map[string]ref
	closed  bool

	// Lifetime counters; atomics so Get can run under RLock.
	hits, misses atomic.Uint64

	stats Stats // recovery, append and compaction counters, guarded by mu
}

// Open opens (creating if needed) the store in dir, replaying every
// segment to rebuild the index. A torn tail record — the signature of a
// crash mid-append — is truncated away, never an error; mid-log CRC
// damage is skipped and counted. The returned store is ready for
// appends.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	nums, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		files:   make(map[int]*os.File),
		results: make(map[string]ref),
	}
	for i, n := range nums {
		if err := s.recoverSegment(n, i == len(nums)-1); err != nil {
			s.Close()
			return nil, err
		}
	}
	if len(nums) == 0 {
		if err := s.newSegment(1); err != nil {
			return nil, err
		}
	} else {
		s.active = nums[len(nums)-1]
		f := s.files[s.active]
		fi, err := f.Stat()
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		s.size = fi.Size()
		if s.size < int64(len(segMagic)) {
			// Empty or header-torn last segment: rewrite it from scratch.
			if err := f.Truncate(0); err != nil {
				s.Close()
				return nil, fmt.Errorf("store: %w", err)
			}
			if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
				s.Close()
				return nil, fmt.Errorf("store: %w", err)
			}
			s.size = int64(len(segMagic))
		}
	}
	return s, nil
}

// recoverSegment replays one segment into the index. last selects the
// tail rules: torn frames at the end of the last segment are truncated
// away; anywhere else damage is counted and skipped.
func (s *Store) recoverSegment(n int, last bool) error {
	path := segPath(s.dir, n)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.files[n] = f
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d := walkSegment(buf, last, func(fr frame, off, size int) {
		s.stats.RecoveredRecords++
		if fr.kind == kindResult {
			s.results[fr.key] = ref{seg: n, off: int64(off), n: size}
		}
	})
	s.stats.CorruptRecords += uint64(d.corruptRecords)
	s.stats.CorruptBytes += uint64(d.corruptBytes)
	if d.truncateAt < 0 {
		return nil
	}
	// Crash mid-append (or mid-creation): drop the torn tail and keep
	// the file appendable at the last good offset.
	if d.tornFrame {
		s.stats.TruncatedRecords++
	}
	s.stats.TruncatedBytes += uint64(len(buf) - d.truncateAt)
	return f.Truncate(int64(d.truncateAt))
}

// newSegment creates segment n, writes its header and makes it active.
func (s *Store) newSegment(n int) error {
	f, err := os.OpenFile(segPath(s.dir, n), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.files[n] = f
	s.active = n
	s.size = int64(len(segMagic))
	return nil
}

// append writes one result frame to the active segment, rotating first
// when it would overflow, and indexes it. Caller holds mu.
func (s *Store) append(fr frame) error {
	if s.closed {
		return errors.New("store: closed")
	}
	n := fr.encodedLen()
	if s.size+int64(n) > s.opts.SegmentBytes && s.size > int64(len(segMagic)) {
		if s.opts.Sync {
			if err := s.files[s.active].Sync(); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
		if err := s.newSegment(s.active + 1); err != nil {
			return err
		}
	}
	buf := fr.appendTo(make([]byte, 0, n))
	f := s.files[s.active]
	if _, err := f.WriteAt(buf, s.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if s.opts.Sync {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.results[fr.key] = ref{seg: s.active, off: s.size, n: n}
	s.size += int64(n)
	s.stats.Appends++
	s.stats.AppendedBytes += uint64(n)
	return nil
}

// Put stores a result payload under its digest, with an optional meta
// blob (the resolved spec, for offline inspection). Results are
// content-addressed: writing the same digest again is legal and the
// last record wins, but callers normally check Get first.
func (s *Store) Put(digest string, meta, result []byte) error {
	if err := checkKey(digest); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(frame{kind: kindResult, key: digest, meta: meta, val: result})
}

// Get returns the stored result payload for digest.
func (s *Store) Get(digest string) ([]byte, bool) {
	_, val, ok := s.lookup(s.resultsRef(digest))
	return val, ok
}

// GetRecord returns both the meta and result payloads for digest.
func (s *Store) GetRecord(digest string) (meta, result []byte, ok bool) {
	return s.lookup(s.resultsRef(digest))
}

func checkKey(key string) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("store: bad key length %d", len(key))
	}
	return nil
}

func (s *Store) resultsRef(key string) (ref, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.results[key]
	return r, ok
}

// lookup reads the frame a ref points at and counts the hit or miss.
func (s *Store) lookup(r ref, ok bool) (meta, val []byte, found bool) {
	if !ok {
		s.misses.Add(1)
		return nil, nil, false
	}
	s.mu.RLock()
	f := s.files[r.seg]
	s.mu.RUnlock()
	if f == nil {
		s.misses.Add(1)
		return nil, nil, false
	}
	buf := make([]byte, r.n)
	if _, err := f.ReadAt(buf, r.off); err != nil {
		s.misses.Add(1)
		return nil, nil, false
	}
	fr, _, ferr := decodeFrame(buf, 0)
	if ferr != nil {
		s.misses.Add(1)
		return nil, nil, false
	}
	s.hits.Add(1)
	return fr.meta, fr.val, true
}

// RecordInfo describes one live result record for offline inspection.
type RecordInfo struct {
	Key     string `json:"key"`
	Segment int    `json:"segment"`
	Bytes   int    `json:"bytes"`
}

// Records lists the live result records, sorted by key.
func (s *Store) Records() []RecordInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RecordInfo, 0, len(s.results))
	for _, k := range sortedKeys(s.results) {
		r := s.results[k]
		out = append(out, RecordInfo{Key: k, Segment: r.seg, Bytes: r.n})
	}
	return out
}

func sortedKeys(m map[string]ref) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Compact rewrites the live result records into fresh segments and
// deletes every older one, reclaiming space held by superseded and
// corrupt records and by the retired checkpoint frames of an older log.
// Crash-safe: new segments are numbered after the old ones and recovery
// is last-record-wins, so dying between writing the new segments and
// removing the old ones recovers to the identical index.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}

	old := make([]int, 0, len(s.files))
	for n := range s.files {
		old = append(old, n)
	}
	sort.Ints(old)
	_, oldBytes := s.diskSize()

	// Read every live frame before touching any file.
	var live []frame
	for _, k := range sortedKeys(s.results) {
		r := s.results[k]
		buf := make([]byte, r.n)
		if _, err := s.files[r.seg].ReadAt(buf, r.off); err != nil {
			return fmt.Errorf("store: compact read %s: %w", k, err)
		}
		fr, _, ferr := decodeFrame(buf, 0)
		if ferr != nil {
			return fmt.Errorf("store: compact decode %s: %s", k, ferr.msg)
		}
		live = append(live, fr)
	}

	// Write the live set into fresh segments numbered past the old log.
	if err := s.newSegment(old[len(old)-1] + 1); err != nil {
		return err
	}
	for _, fr := range live {
		if err := s.append(fr); err != nil {
			return err
		}
	}
	if err := s.files[s.active].Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}

	// Only now is it safe to drop the sources.
	for _, n := range old {
		s.files[n].Close()
		delete(s.files, n)
		if err := os.Remove(segPath(s.dir, n)); err != nil {
			return fmt.Errorf("store: compact remove: %w", err)
		}
	}
	s.stats.Compactions++
	if _, newBytes := s.diskSize(); oldBytes > newBytes {
		s.stats.ReclaimedBytes += uint64(oldBytes - newBytes)
	}
	return nil
}

// diskSize returns the number of segment files and their total size.
// Caller holds mu.
func (s *Store) diskSize() (segments int, bytes int64) {
	for _, f := range s.files {
		if fi, err := f.Stat(); err == nil {
			bytes += fi.Size()
		}
	}
	return len(s.files), bytes
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Results = len(s.results)
	st.Segments, st.SizeBytes = s.diskSize()
	st.Hits = s.hits.Load()
	st.Misses = s.misses.Load()
	return st
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Close syncs the active segment and releases every file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if f, ok := s.files[s.active]; ok {
		if err := f.Sync(); err != nil && first == nil {
			first = err
		}
	}
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
