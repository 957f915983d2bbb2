package stream

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestGrowthBoundaryDifferential fills default-config streams to sizes on
// both sides of each ring and extrema doubling and of the full window, and
// checks at each size that the curves and span tables equal
// kernel.Extract's, that the exported State encodes to the same bytes as a
// stream restored from it and exported again, and that a forced anchor
// finds no drift. One stream takes a sample at a time with a read every
// few samples, so its extrema grow in small steps; one takes each size in
// a single batch; one jumps from 3 samples to two windows in one batch.
func TestGrowthBoundaryDifferential(t *testing.T) {
	const w, maxK = DefaultWindow, DefaultMaxK
	rng := rand.New(rand.NewSource(28))
	ts := make([]int64, 2*w)
	ds := make([]int64, 2*w)
	var now int64
	for i := range ts {
		now += int64(rng.Intn(40)) // gap 0 keeps simultaneous events in play
		ts[i] = now
		ds[i] = int64(rng.Intn(1000))
	}
	check := func(tag string, s *Stream, n int) {
		t.Helper()
		checkAgainstBatch(t, s, ts[:n], ds[:n], w, maxK)
		want := s.ExportState().AppendBinary(nil)
		r, err := Restore(Config{}, s.ExportState())
		if err != nil {
			t.Fatalf("%s at %d samples: %v", tag, n, err)
		}
		if got := r.ExportState().AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s at %d samples: a restored stream exports %d bytes that differ from the original's %d",
				tag, n, len(got), len(want))
		}
		checkAgainstBatch(t, r, ts[:n], ds[:n], w, maxK)
		for _, x := range []*Stream{s, r} {
			if drift, err := x.Reextract(); err != nil || drift != 0 {
				t.Fatalf("%s at %d samples: forced anchor drift=%d, %v", tag, n, drift, err)
			}
		}
	}

	sizes := []int{1, 7, 8, 9, 511, 512, 513, w - 1, w, w + 1}
	stepped, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for _, n := range sizes {
		for ; fed < n; fed++ {
			if _, err := stepped.Ingest(ts[fed:fed+1], ds[fed:fed+1]); err != nil {
				t.Fatal(err)
			}
			if fed%5 == 0 {
				if _, err := stepped.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("per-sample", stepped, n)

		whole, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := whole.Ingest(ts[:n], ds[:n]); err != nil {
			t.Fatal(err)
		}
		check("one batch", whole, n)
	}

	jump, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jump.Ingest(ts[:3], ds[:3]); err != nil {
		t.Fatal(err)
	}
	check("3 samples", jump, 3)
	if _, err := jump.Ingest(ts[3:], ds[3:]); err != nil {
		t.Fatal(err)
	}
	check("jump from 3", jump, 2*w)
}
