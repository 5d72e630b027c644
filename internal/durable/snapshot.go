package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"

	"kelp/internal/events"
	"kelp/internal/node"
	"kelp/internal/policy"
)

// SessionSnapshot is one checkpoint of a session: the node's full
// simulation state, the applied policy controller's state, the flight
// recorder, and the WAL sequence number the state corresponds to —
// recovery restores the snapshot and replays only WAL records with
// Seq > this one.
type SessionSnapshot struct {
	Seq      uint64
	SimNow   float64
	Recorder events.RecorderState
	Node     *node.Snapshot
	Policy   policy.State
}

// WriteSnapshot writes s to path with the atomic-rename discipline: encode,
// frame with a checksum, write to a ".tmp" sibling, fsync it, rename over
// path, fsync the directory. A crash at any point leaves either the old
// snapshot or the new one — never a torn file under the real name (a
// leftover .tmp is deleted at recovery).
func WriteSnapshot(path string, s *SessionSnapshot) error {
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return err
	}
	buf.Write(frame(payload.Bytes()))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// ReadSnapshot reads and verifies the snapshot at path. Any damage — bad
// magic, checksum mismatch, truncation, trailing garbage, an undecodable
// payload — is a *CorruptError: snapshots are atomically renamed, so a
// damaged one was damaged at rest and should be quarantined.
func ReadSnapshot(path string) (*SessionSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}

// DecodeSnapshot decodes an in-memory snapshot image. See ReadSnapshot.
func DecodeSnapshot(data []byte) (*SessionSnapshot, error) {
	if len(data) < len(snapMagic)+headerLen || string(data[:len(snapMagic)]) != snapMagic {
		return nil, &CorruptError{Offset: 0, Reason: "bad magic"}
	}
	off := int64(len(snapMagic))
	ln := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if ln == 0 || ln > maxSnapshot {
		return nil, &CorruptError{Offset: off, Reason: "bad payload length"}
	}
	if off+headerLen+ln != int64(len(data)) {
		return nil, &CorruptError{Offset: off, Reason: "payload length does not match file size"}
	}
	payload := data[off+headerLen:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, &CorruptError{Offset: off, Reason: "checksum mismatch"}
	}
	var s SessionSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, &CorruptError{Offset: off + headerLen, Reason: "undecodable snapshot: " + err.Error()}
	}
	return &s, nil
}
