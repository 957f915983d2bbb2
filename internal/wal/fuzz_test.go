package wal

import (
	"errors"
	"testing"

	"wcm/internal/stream"
)

// The durability layer's parsers face bytes that a crash, a bad disk, or a
// hostile tenant wrote. The contract under fuzzing: never panic, never
// allocate absurdly, and classify every input as either a clean record, a
// torn tail (errTorn), or a loud structural error.

func FuzzWALRecord(f *testing.F) {
	f.Add(appendRecord(nil, recIngest, "stream-a", 7, []int64{1, 2, 3}, []int64{4, 5, 6}))
	f.Add(appendRecord(nil, recTombstone, "stream-b", 0, nil, nil))
	f.Add(appendRecord(nil, recIngest, "", 1, []int64{0}, []int64{0}))
	// Two records back to back, as a segment holds them.
	two := appendRecord(nil, recIngest, "x", 1, []int64{1}, []int64{1})
	two = appendRecord(two, recTombstone, "x", 0, nil, nil)
	f.Add(two)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, b []byte) {
		// Scan exactly like recovery does: frame by frame until torn or done.
		off := 0
		for off < len(b) {
			payload, consumed, err := parseFrame(b[off:])
			if errors.Is(err, errTorn) {
				return
			}
			if consumed <= 0 {
				t.Fatalf("parseFrame consumed %d without error", consumed)
			}
			rec, perr := parsePayload(payload)
			if perr == nil && rec.kind == recIngest && len(rec.ts) != len(rec.ds) {
				t.Fatalf("decoded ingest record with mismatched columns: %+v", rec)
			}
			off += consumed
		}
	})
}

func FuzzSnapshot(f *testing.F) {
	// A genuine snapshot of a genuine stream as the seed.
	s, err := stream.New(stream.Config{Window: 8, MaxK: 4})
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if _, err := s.Ingest([]int64{i * 10}, []int64{i}); err != nil {
			f.Fatal(err)
		}
	}
	blob := s.ExportState().AppendBinary(nil)
	f.Add(appendSnapshot(nil, "stream-a", 3, 10, blob))
	f.Add(appendSnapshot(nil, "", 0, 0, nil))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		sf, err := parseSnapshot(b)
		if err != nil {
			return // corrupt file: recovery deletes it, nothing to check
		}
		// A CRC-valid snapshot's state blob still goes through DecodeState,
		// which must never panic and must only accept Restorable shapes.
		st, err := stream.DecodeState(sf.state)
		if err != nil {
			return
		}
		if st.Window > 1<<16 {
			// Shape-valid but enormous: Restore would faithfully allocate
			// the rings. Real recovery hits the config-mismatch check (the
			// server's window is sane) before any allocation.
			return
		}
		cfg := stream.Config{Window: st.Window, MaxK: st.MaxK}
		if _, err := stream.Restore(cfg, st); err != nil {
			t.Fatalf("DecodeState accepted a state Restore rejects: %v", err)
		}
	})
}
