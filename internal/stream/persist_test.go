package stream

import (
	"errors"
	"reflect"
	"testing"
)

// feedN ingests n single-sample batches with a deterministic demand pattern
// (including zeros and repeats, so extrema rebuilds are exercised).
func feedN(t *testing.T, s *Stream, startT, n int64) {
	t.Helper()
	for i := int64(0); i < n; i++ {
		ts := startT + i*10
		d := (i*7)%13 + (i % 3) // varied, non-negative
		if _, err := s.Ingest([]int64{ts}, []int64{d}); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
}

// queriesEqual asserts two streams answer the full read surface identically.
func queriesEqual(t *testing.T, want, got *Stream) {
	t.Helper()
	ww, errW := want.Workload()
	wg, errG := got.Workload()
	if (errW == nil) != (errG == nil) {
		t.Fatalf("Workload errors diverge: %v vs %v", errW, errG)
	}
	if errW == nil && !reflect.DeepEqual(ww, wg) {
		t.Fatalf("Workload diverges:\n want %+v\n  got %+v", ww, wg)
	}
	sw, mw, errW := want.Spans()
	sg, mg, errG := got.Spans()
	if (errW == nil) != (errG == nil) {
		t.Fatalf("Spans errors diverge: %v vs %v", errW, errG)
	}
	if errW == nil && (!reflect.DeepEqual(sw, sg) || !reflect.DeepEqual(mw, mg)) {
		t.Fatalf("Spans diverge")
	}
	fw, errW := want.MinFrequency(0)
	fg, errG := got.MinFrequency(0)
	if (errW == nil) != (errG == nil) {
		t.Fatalf("MinFrequency errors diverge: %v vs %v", errW, errG)
	}
	if errW == nil && !reflect.DeepEqual(fw, fg) {
		t.Fatalf("MinFrequency diverges:\n want %+v\n  got %+v", fw, fg)
	}
	stw, stg := want.Stats(), got.Stats()
	if !reflect.DeepEqual(stw, stg) {
		t.Fatalf("Stats diverge:\n want %+v\n  got %+v", stw, stg)
	}
	if want.Version() != got.Version() {
		t.Fatalf("Version diverges: %d vs %d", want.Version(), got.Version())
	}
}

func TestExportRestoreRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, 5, 64, 200} { // below, at, and past the window
		cfg := Config{Window: 64, MaxK: 16}
		orig, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedN(t, orig, 100, n)

		st := orig.ExportState()
		blob := st.AppendBinary(nil)
		dec, err := DecodeState(blob)
		if err != nil {
			t.Fatalf("n=%d DecodeState: %v", n, err)
		}
		// Compare via re-encoding: DeepEqual would flag nil vs empty columns,
		// a distinction the codec (rightly) does not preserve.
		if reblob := dec.AppendBinary(nil); string(reblob) != string(blob) {
			t.Fatalf("n=%d state round-trip diverges:\n want %+v\n  got %+v", n, st, dec)
		}
		restored, err := Restore(cfg, dec)
		if err != nil {
			t.Fatalf("n=%d Restore: %v", n, err)
		}
		queriesEqual(t, orig, restored)
	}
}

// TestRestoredStreamEvolvesIdentically is the property durability actually
// relies on: export mid-history, restore, then feed both streams the same
// tail — every answer, and every audit, must stay identical.
func TestRestoredStreamEvolvesIdentically(t *testing.T) {
	cfg := Config{Window: 32, MaxK: 8}
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, orig, 0, 47)

	restored, err := Restore(cfg, orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, orig, restored)

	feedN(t, orig, 1000, 53)
	feedN(t, restored, 1000, 53)
	queriesEqual(t, orig, restored)

	for _, s := range []*Stream{orig, restored} {
		if mismatches, err := s.Reextract(); err != nil || mismatches != 0 {
			t.Fatalf("audit after the tail: %d mismatches, %v", mismatches, err)
		}
	}
	queriesEqual(t, orig, restored)
}

// TestExportRestoreIsLazy: ExportState copies the rings and settles
// nothing — no extrema for a stream no read asked for, no catch-up of a
// read stream's backlog — and Restore copies them back without allocating
// extrema; the restored stream's first read rebuilds them from the window,
// as a settle after a backlog of a window or more does, and answers as
// the original does.
func TestExportRestoreIsLazy(t *testing.T) {
	cfg := Config{Window: 32, MaxK: 8}
	for _, n := range []int64{5, 32, 80} { // below, at and past the window
		orig, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedN(t, orig, 0, n)
		orig.ExportState()
		if orig.pre.maxVal != nil || orig.settled != 0 {
			t.Fatalf("n=%d: export of an unread stream settled %d samples", n, orig.settled)
		}
		if _, err := orig.Snapshot(); err != nil {
			t.Fatal(err)
		}
		feedN(t, orig, 1000, 3)
		st := orig.ExportState()
		if orig.settled != n {
			t.Fatalf("n=%d: export settled the backlog: settled %d", n, orig.settled)
		}
		restored, err := Restore(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if restored.pre.maxVal != nil || restored.spi.maxVal != nil || restored.settled != 0 {
			t.Fatalf("n=%d: Restore settled %d samples into the extrema", n, restored.settled)
		}
		snap, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Settled != int(n+3) || snap.Rebuilt != (n+3 >= 32) {
			t.Fatalf("n=%d: first read settled %d (rebuilt %v)", n, snap.Settled, snap.Rebuilt)
		}
		queriesEqual(t, orig, restored)
	}
}

// TestDecodeStateIgnoresRetiredFields: snapshots written while the State
// layout still carried the anchor cadence and counters decode to the same
// State, whatever those retired slots hold.
func TestDecodeStateIgnoresRetiredFields(t *testing.T) {
	orig, err := New(Config{Window: 16, MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, orig, 0, 20)
	blob := orig.ExportState().AppendBinary(nil)
	old := append([]byte{}, blob...)
	for slot, v := range map[int]byte{2: 16, 6: 4, 7: 3, 8: 1} {
		old[len(stateMagic)+8*slot] = v
	}
	st, err := DecodeState(old)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.AppendBinary(nil); string(got) != string(blob) {
		t.Fatal("retired fields changed the decoded state")
	}
}

func TestRestoreConfigMismatch(t *testing.T) {
	orig, err := New(Config{Window: 64, MaxK: 16})
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, orig, 0, 10)
	st := orig.ExportState()
	for _, cfg := range []Config{
		{Window: 128, MaxK: 16},
		{Window: 64, MaxK: 8},
	} {
		if _, err := Restore(cfg, st); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("Restore with config %+v: err=%v, want ErrBadConfig", cfg, err)
		}
	}
}

func TestDecodeStateRejectsCorruption(t *testing.T) {
	orig, err := New(Config{Window: 16, MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, orig, 0, 8)
	good := orig.ExportState().AppendBinary(nil)

	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:len(good)/2],
		"bad magic":   append([]byte("NOTSTRM1"), good[8:]...),
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte{}, good...), 0),
		"neg demands": nil, // filled below
	}
	// A demand column byte flipped to make a value negative.
	neg := append([]byte{}, good...)
	neg[len(neg)-8*9-1] = 0xFF // high byte of a demand → negative int64
	cases["neg demands"] = neg

	for name, b := range cases {
		if _, err := DecodeState(b); err == nil {
			t.Errorf("%s: DecodeState accepted corrupt input", name)
		}
	}
}
