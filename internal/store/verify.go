package store

import (
	"fmt"
	"os"
)

// VerifyReport is the outcome of a read-only scan of a store directory:
// what a recovery would index and what damage it would repair or skip,
// without modifying a single byte.
type VerifyReport struct {
	Segments  int   `json:"segments"`
	SizeBytes int64 `json:"size_bytes"`
	// ValidRecords counts CRC-valid frames, the retired checkpoint
	// frames of an older log included; Results counts the live results
	// among them and SupersededRecords the results a later frame for
	// the same digest replaces.
	ValidRecords      int `json:"valid_records"`
	Results           int `json:"results"`
	SupersededRecords int `json:"superseded_records"`
	// TornTailBytes is the partial frame at the end of the last segment
	// that Open would truncate away.
	TornTailBytes int `json:"torn_tail_bytes"`
	// CorruptRecords / CorruptBytes is mid-log damage Open would skip.
	CorruptRecords int `json:"corrupt_records"`
	CorruptBytes   int `json:"corrupt_bytes"`
}

// Clean reports whether the scan found no damage of any kind.
func (r VerifyReport) Clean() bool {
	return r.TornTailBytes == 0 && r.CorruptRecords == 0 && r.CorruptBytes == 0
}

// Verify scans the store in dir read-only and reports what recovery
// would find: it walks each segment exactly as Open does, but only
// counts. Safe to run against a live store owned by another process:
// it opens nothing for writing.
func Verify(dir string) (VerifyReport, error) {
	var rep VerifyReport
	nums, err := listSegments(dir)
	if err != nil {
		return rep, err
	}
	rep.Segments = len(nums)
	results := make(map[string]bool)
	for i, n := range nums {
		buf, err := os.ReadFile(segPath(dir, n))
		if err != nil {
			return rep, fmt.Errorf("store: verify: %w", err)
		}
		rep.SizeBytes += int64(len(buf))
		d := walkSegment(buf, i == len(nums)-1, func(fr frame, _, _ int) {
			rep.ValidRecords++
			if fr.kind != kindResult {
				return
			}
			if results[fr.key] {
				rep.SupersededRecords++
			}
			results[fr.key] = true
		})
		if d.truncateAt >= 0 {
			rep.TornTailBytes += len(buf) - d.truncateAt
		}
		rep.CorruptRecords += d.corruptRecords
		rep.CorruptBytes += d.corruptBytes
	}
	rep.Results = len(results)
	return rep, nil
}
