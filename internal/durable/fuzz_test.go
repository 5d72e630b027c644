package durable

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"kelp/internal/events"
)

// FuzzWALDecode drives DecodeWAL with arbitrary bytes: truncations, bit
// flips, and hostile length fields must produce a clean classification
// (records + torn offset, or CorruptError) — never a panic or an over-read.
func FuzzWALDecode(f *testing.F) {
	valid := []byte(walMagic)
	for i, p := range [][]byte{
		mustJSON(Record{Seq: 1, Kind: KindCreate, Config: json.RawMessage(`{"name":"a"}`)}),
		mustJSON(Record{Seq: 2, Kind: KindAdmit, Admit: json.RawMessage(`{"ml":"CNN1"}`)}),
		mustJSON(Record{Seq: 3, Kind: KindAdvance, End: math.Float64bits(0.5)}),
	} {
		valid = append(valid, frame(p)...)
		if i == 1 {
			f.Add(append([]byte{}, valid...)) // prefix ending on a boundary
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])   // torn tail
	f.Add([]byte(walMagic))       // empty log
	f.Add([]byte("KELPWAL2junk")) // wrong version
	f.Add([]byte{})
	huge := append([]byte(walMagic), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	f.Add(huge) // hostile length field

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := DecodeWAL(data)
		if err != nil {
			if _, ok := err.(*CorruptError); !ok {
				t.Fatalf("non-CorruptError failure: %v", err)
			}
			return
		}
		if rd.TornAt >= 0 && rd.TornAt > int64(len(data)) {
			t.Fatalf("TornAt %d beyond input of %d bytes", rd.TornAt, len(data))
		}
		for i, r := range rd.Records {
			if r.Seq != uint64(i+1) {
				t.Fatalf("accepted out-of-sequence record %d with seq %d", i, r.Seq)
			}
		}
	})
}

// FuzzSnapshotDecode drives DecodeSnapshot with arbitrary bytes; it must
// either return a snapshot or a CorruptError, never panic. The seeds
// include a full session snapshot (node with every task state type, Kelp
// runtime, throttler, MBA), so mutations reach every state type's decoding.
func FuzzSnapshotDecode(f *testing.F) {
	rec := events.MustNew(4)
	rec.Emit(1, events.KelpActuate, "kelp", map[string]any{"low_cores": 3})
	full, _ := fullSessionSnapshot(f)
	dir := f.TempDir()
	for i, snap := range []*SessionSnapshot{{Seq: 5, SimNow: 2, Recorder: rec.State()}, full} {
		path := SnapPath(dir, fmt.Sprintf("seed%d", i))
		if err := WriteSnapshot(path, snap); err != nil {
			f.Fatal(err)
		}
		valid, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)-2])
		flipped := append([]byte{}, valid...)
		flipped[len(flipped)/2] ^= 8
		f.Add(flipped)
		// The same image under the previous format's magic.
		f.Add(append([]byte("KELPSNP3"), valid[len(snapMagic):]...))
	}
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeSnapshotOrCorrupt(t, data)
		// The checksum rejects nearly every mutation before gob sees it.
		// Reframing a mutated payload under a fresh checksum sends the
		// mutations through the state types' decoding as well.
		if hdr := len(snapMagic) + headerLen; len(data) > hdr {
			decodeSnapshotOrCorrupt(t, append([]byte(snapMagic), frame(data[hdr:])...))
		}
	})
}

func decodeSnapshotOrCorrupt(t *testing.T, data []byte) {
	t.Helper()
	s, err := DecodeSnapshot(data)
	if err != nil {
		if _, ok := err.(*CorruptError); !ok {
			t.Fatalf("non-CorruptError failure: %v", err)
		}
		return
	}
	if s == nil {
		t.Fatal("nil snapshot with nil error")
	}
}

func mustJSON(r Record) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return b
}
