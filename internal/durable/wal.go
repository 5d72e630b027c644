package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Kind discriminates WAL record types.
type Kind string

const (
	// KindCreate is the first record of every WAL: the session's create
	// request (name, policy, faults, seed, ...), enough to rebuild the
	// empty session from configuration alone.
	KindCreate Kind = "create"
	// KindAdmit is one POST /tasks request body, logged before it is
	// applied. Rejected admissions are logged too: the outcome is a
	// deterministic function of session state, and the rejection's
	// agent.reject event must reappear on replay.
	KindAdmit Kind = "admit"
	// KindFS is one mutating resctrl-fs request (PUT/POST/DELETE), logged
	// before it is applied.
	KindFS Kind = "fs"
	// KindAdvance is one completed advance job, logged after the engine
	// ticked. End carries the bit pattern of the engine clock actually
	// reached — not the requested span — so a job stopped early by a
	// timeout or cancel replays exactly.
	KindAdvance Kind = "advance"
)

// Record is one WAL entry. Seq starts at 1 and increments by one per
// record; the decoder treats a discontinuity as corruption.
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`

	// Create: the session create request body (KindCreate).
	Config json.RawMessage `json:"config,omitempty"`
	// Admit: the task admission request body (KindAdmit).
	Admit json.RawMessage `json:"admit,omitempty"`
	// FS: method, sub-path and body of a mutating fs request (KindFS).
	Method string `json:"method,omitempty"`
	Path   string `json:"path,omitempty"`
	Body   []byte `json:"body,omitempty"`
	// End: math.Float64bits of the engine clock after the advance
	// (KindAdvance).
	End uint64 `json:"end,omitempty"`
}

// WAL is an append-only, fsync-per-record log. Callers serialize access.
type WAL struct {
	f    *os.File
	path string
	seq  uint64
}

// WALPath and SnapPath name a session's files inside the persist dir.
func WALPath(dir, session string) string  { return filepath.Join(dir, session+".wal") }
func SnapPath(dir, session string) string { return filepath.Join(dir, session+".snap") }

// SessionName inverts WALPath/SnapPath: the session a file belongs to, and
// whether the name is one of the two known suffixes.
func SessionName(file string) (string, bool) {
	base := filepath.Base(file)
	for _, suf := range []string{".wal", ".snap"} {
		if len(base) > len(suf) && base[len(base)-len(suf):] == suf {
			return base[:len(base)-len(suf)], true
		}
	}
	return "", false
}

// CreateWAL creates (truncating) the log at path, writes the magic header,
// and fsyncs both the file and its directory so the log survives a crash
// immediately after creation.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, path: path}, nil
}

// OpenWAL reopens an existing log for appending after recovery. When
// truncateAt >= 0 the file is first truncated there, discarding a torn
// tail (the caller has already copied the fragment to quarantine). lastSeq
// is the sequence number of the last surviving record.
func OpenWAL(path string, truncateAt int64, lastSeq uint64) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if truncateAt >= 0 {
		if err := f.Truncate(truncateAt); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, path: path, seq: lastSeq}, nil
}

// Append marshals rec, frames it, writes the frame with a single Write
// call, and fsyncs. rec.Seq must be the successor of the last appended
// sequence number.
func (w *WAL) Append(rec Record) error {
	if rec.Seq != w.seq+1 {
		return fmt.Errorf("durable: append seq %d after %d", rec.Seq, w.seq)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if len(payload) > maxRecord {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d cap", len(payload), maxRecord)
	}
	if _, err := w.f.Write(frame(payload)); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.seq = rec.Seq
	return nil
}

// Seq returns the sequence number of the last appended (or recovered)
// record; 0 for an empty log.
func (w *WAL) Seq() uint64 { return w.seq }

// Close closes the underlying file. The log is already durable — every
// append fsynced — so Close performs no final flush.
func (w *WAL) Close() error { return w.f.Close() }

// WALRead is the outcome of decoding a log.
type WALRead struct {
	// Records holds every intact record in order.
	Records []Record
	// TornAt is the byte offset where a salvageable torn tail begins
	// (truncate the file there and quarantine the fragment), or -1 when
	// the file ends cleanly.
	TornAt int64
}

// Torn reports whether the log ended in a damaged tail.
func (r WALRead) Torn() bool { return r.TornAt >= 0 }

// ReadWAL reads and decodes the log at path. A *CorruptError means the file
// is unsalvageable and should be quarantined; a torn tail is reported via
// WALRead.TornAt, with every record before the tear returned.
func ReadWAL(path string) (WALRead, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return WALRead{TornAt: -1}, err
	}
	return DecodeWAL(data)
}

// DecodeWAL decodes an in-memory WAL image. See ReadWAL.
func DecodeWAL(data []byte) (WALRead, error) {
	out := WALRead{TornAt: -1}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		return out, &CorruptError{Offset: 0, Reason: "bad magic"}
	}
	off := int64(len(walMagic))
	n := int64(len(data))
	for off < n {
		rest := n - off
		if rest < headerLen {
			// A partial frame header can only be a torn final append.
			out.TornAt = off
			return out, nil
		}
		ln := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if ln == 0 || ln > maxRecord {
			// Frames are written atomically, so a torn tail is a strict
			// prefix of a valid frame: its length field, once present, is
			// genuine. A nonsense length is corruption, not a tear.
			return out, &CorruptError{Offset: off, Reason: fmt.Sprintf("record length %d", ln)}
		}
		if off+headerLen+ln > n {
			out.TornAt = off
			return out, nil
		}
		payload := data[off+headerLen : off+headerLen+ln]
		if crc32.Checksum(payload, castagnoli) != crc {
			if off+headerLen+ln == n {
				// Final frame: give the tear the benefit of the doubt.
				out.TornAt = off
				return out, nil
			}
			return out, &CorruptError{Offset: off, Reason: "checksum mismatch"}
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return out, &CorruptError{Offset: off, Reason: "undecodable record: " + err.Error()}
		}
		if want := uint64(len(out.Records) + 1); rec.Seq != want {
			return out, &CorruptError{Offset: off, Reason: fmt.Sprintf("sequence %d, want %d", rec.Seq, want)}
		}
		out.Records = append(out.Records, rec)
		off += headerLen + ln
	}
	return out, nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
