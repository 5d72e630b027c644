// Package durable is kelpd's crash-safety layer: per-session write-ahead
// logs of every accepted command and periodic checksummed snapshots of the
// full simulation state, written with the standard fsync/rename discipline
// so that a SIGKILL at any instant loses at most the in-flight command.
//
// File formats (both little-endian):
//
//	<name>.wal    "KELPWAL1" then frames of [u32 len][u32 crc32c][payload],
//	              payload = one JSON Record; appended and fsynced per record.
//	<name>.snap   "KELPSNP4" then exactly one frame, payload = gob-encoded
//	              SessionSnapshot; written to a .tmp sibling, fsynced,
//	              renamed over the old snapshot, directory fsynced.
//
// A frame is written with a single Write call, so a torn append is always a
// strict prefix of a valid frame: the decoder classifies damage that
// reaches end-of-file as a salvageable torn tail, and any interior damage
// (a bit flip under an intact tail) as corruption. Callers quarantine
// corrupt files and truncate torn ones; see the kelpd recovery path.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	walMagic  = "KELPWAL1"
	snapMagic = "KELPSNP4"

	// maxRecord bounds one WAL record's payload. kelpd caps request bodies
	// far below this; a larger declared length is framing nonsense, and
	// rejecting it up front keeps a hostile length field from forcing a
	// huge allocation or an over-read.
	maxRecord = 8 << 20
	// maxSnapshot bounds one snapshot payload.
	maxSnapshot = 256 << 20

	headerLen = 8 // u32 len + u32 crc32c
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports unsalvageable damage: bad magic, interior framing or
// checksum failure, an undecodable record, or a sequence discontinuity.
// Torn tails — damage reaching end-of-file — are not errors; see WALRead.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("durable: corrupt at offset %d: %s", e.Offset, e.Reason)
}

// frame renders one [len][crc][payload] frame.
func frame(payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[headerLen:], payload)
	return buf
}
