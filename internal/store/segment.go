package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment file layout. A segment is a short magic header followed by a
// sequence of frames; nothing else. Frames are never updated in place —
// the log is append-only, and a later frame for the same key supersedes
// any earlier one (recovery replays segments in order, so "last wins"
// also makes compaction crash-safe: duplicates left by a crash between
// writing the compacted segment and deleting its sources resolve to the
// same record).
//
// Frame layout (little-endian):
//
//	offset size field
//	0      4    CRC32C over bytes [4, end of frame)
//	4      1    kind (always result; see below)
//	5      4    key length
//	9      4    meta length
//	13     4    value length
//	17     ...  key, meta, value (concatenated)
//
// The CRC covers kind, the three lengths and all three sections, so a
// torn or bit-flipped frame can never enter the index.
const (
	segMagic    = "dikeseg1"
	frameHeader = 17
	segSuffix   = ".seg"
)

// Record kinds. The store writes only results. Kinds 2 and 3 are the
// sweep checkpoints and their tombstones that earlier versions wrote:
// they still decode as valid frames, so a segment holding them stays
// readable to its end, but recovery indexes none of them and Compact
// drops them.
const (
	kindResult  = byte(1) // digest → result payload (+ spec meta)
	kindMaxRead = byte(3) // highest kind a valid frame may carry
)

// Sanity bounds on frame sections: a length field beyond these means the
// header itself is damaged and the scanner cannot resync past it.
const (
	maxKeyLen  = 1 << 10
	maxMetaLen = 1 << 20
	maxValLen  = 1 << 26
)

// castagnoli is the CRC32C table (the iSCSI polynomial, hardware
// accelerated on amd64/arm64 — the same checksum LevelDB and friends
// frame records with).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame is one decoded log record.
type frame struct {
	kind byte
	key  string
	meta []byte
	val  []byte
}

// encodedLen returns the on-disk size of the frame.
func (f *frame) encodedLen() int {
	return frameHeader + len(f.key) + len(f.meta) + len(f.val)
}

// appendTo serialises the frame onto buf and returns the extended slice.
func (f *frame) appendTo(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	buf = append(buf, f.kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.meta)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.val)))
	buf = append(buf, f.key...)
	buf = append(buf, f.meta...)
	buf = append(buf, f.val...)
	crc := crc32.Checksum(buf[start+4:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start:start+4], crc)
	return buf
}

// frameError classifies why a frame failed to decode, so recovery can
// distinguish a torn tail (truncate) from mid-log damage (skip).
type frameError struct {
	// torn: the frame runs past the end of the buffer — either a header
	// cut short or a body shorter than its declared lengths. At the tail
	// of the last segment this is the signature of a crash mid-append.
	torn bool
	// resync: the header decoded sanely and the full frame is present,
	// but the CRC does not match; the scanner can skip exactly this
	// frame and keep reading.
	resync bool
	msg    string
}

// decodeFrame parses the frame at buf[off:]. It returns the frame and
// the offset just past it; on failure the *frameError tells the caller
// whether the rest of the buffer is readable, and for a resync error
// the offset is still the end of the skipped frame.
func decodeFrame(buf []byte, off int) (frame, int, *frameError) {
	rest := buf[off:]
	if len(rest) < frameHeader {
		return frame{}, 0, &frameError{torn: true, msg: fmt.Sprintf("truncated header: %d bytes", len(rest))}
	}
	kind := rest[4]
	keyLen := binary.LittleEndian.Uint32(rest[5:9])
	metaLen := binary.LittleEndian.Uint32(rest[9:13])
	valLen := binary.LittleEndian.Uint32(rest[13:17])
	if kind < kindResult || kind > kindMaxRead ||
		keyLen == 0 || keyLen > maxKeyLen || metaLen > maxMetaLen || valLen > maxValLen {
		// The header itself is garbage: the length fields cannot be
		// trusted to find the next frame boundary.
		return frame{}, 0, &frameError{msg: fmt.Sprintf("insane header at offset %d", off)}
	}
	total := frameHeader + int(keyLen) + int(metaLen) + int(valLen)
	if len(rest) < total {
		return frame{}, 0, &frameError{torn: true, msg: fmt.Sprintf("frame wants %d bytes, %d remain", total, len(rest))}
	}
	want := binary.LittleEndian.Uint32(rest[0:4])
	if crc32.Checksum(rest[4:total], castagnoli) != want {
		return frame{}, off + total, &frameError{resync: true, msg: fmt.Sprintf("crc mismatch at offset %d", off)}
	}
	body := rest[frameHeader:total]
	k, m := int(keyLen), int(metaLen)
	f := frame{
		kind: kind,
		key:  string(body[:k]),
		meta: body[k : k+m],
		val:  body[k+m:],
	}
	return f, off + total, nil
}

// damage is what a walk over one segment found beyond its valid
// frames: the torn tail recovery truncates and the corruption it skips.
type damage struct {
	// truncateAt is where the torn tail of the last segment starts (a
	// frame cut short by a crash mid-append, or a header torn at
	// creation), or -1 when there is none.
	truncateAt int
	// tornFrame reports that the torn tail is a partial frame rather
	// than a torn segment header.
	tornFrame bool
	// corruptRecords counts frames skipped on a CRC mismatch, plus one
	// for an unreadable remainder; corruptBytes is the size of that
	// remainder (a damaged header leaves no way to find the next frame).
	corruptRecords, corruptBytes int
}

// walkSegment is the one reading of a segment's bytes that recovery and
// Verify share. It calls fn for every CRC-valid frame with its offset
// and length, and classifies the rest. last selects the tail rules: a
// torn frame at the end of the last segment is a torn tail; anywhere
// else damage is skipped and counted.
func walkSegment(buf []byte, last bool, fn func(fr frame, off, n int)) damage {
	d := damage{truncateAt: -1}
	if len(buf) == 0 {
		return d // freshly created, crashed before the header landed
	}
	if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != segMagic {
		if last {
			d.truncateAt = 0
		} else {
			d.corruptRecords, d.corruptBytes = 1, len(buf)
		}
		return d
	}
	off := len(segMagic)
	for off < len(buf) {
		fr, next, ferr := decodeFrame(buf, off)
		switch {
		case ferr == nil:
			fn(fr, off, next-off)
		case ferr.torn && last:
			d.truncateAt, d.tornFrame = off, true
			return d
		case ferr.resync:
			d.corruptRecords++
		default:
			// A damaged header (or a torn frame mid-log): the length
			// fields cannot be trusted, so the rest is unreadable.
			d.corruptRecords++
			d.corruptBytes = len(buf) - off
			return d
		}
		off = next
	}
	return d
}

// segName formats a segment file name; segments sort lexically in
// creation order.
func segName(n int) string { return fmt.Sprintf("%08d%s", n, segSuffix) }

// segNum parses a segment file name back to its number.
func segNum(name string) (int, bool) {
	base := strings.TrimSuffix(name, segSuffix)
	if base == name || len(base) != 8 {
		return 0, false
	}
	n, err := strconv.Atoi(base)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	var nums []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := segNum(e.Name()); ok {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	return nums, nil
}

// segPath joins dir and the segment file name.
func segPath(dir string, n int) string { return filepath.Join(dir, segName(n)) }
