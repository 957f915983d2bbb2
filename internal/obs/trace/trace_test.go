package trace

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	good := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	hi, lo, parent, flags, ok := ParseTraceparent(good)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) not ok", good)
	}
	if hi != 0x4bf92f3577b34da6 || lo != 0xa3ce929d0e0e4736 {
		t.Errorf("trace-id halves = %016x %016x", hi, lo)
	}
	if parent != 0x00f067aa0ba902b7 {
		t.Errorf("parent = %016x", parent)
	}
	if flags != 0x01 {
		t.Errorf("flags = %02x", flags)
	}

	// Unknown future version with extra dash-separated fields is accepted.
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	if _, _, _, _, ok := ParseTraceparent(future); !ok {
		t.Errorf("future version with suffix rejected: %q", future)
	}

	bad := []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // short
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // v00 must be exactly 55
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff invalid
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01",  // non-hex trace-id
	}
	for _, s := range bad {
		if _, _, _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
}

func TestFormatTraceparentRoundTrip(t *testing.T) {
	out := FormatTraceparent(0x4bf92f3577b34da6, 0xa3ce929d0e0e4736, 0x00f067aa0ba902b7)
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if out != want {
		t.Fatalf("FormatTraceparent = %q, want %q", out, want)
	}
	hi, lo, parent, _, ok := ParseTraceparent(out)
	if !ok || hi != 0x4bf92f3577b34da6 || lo != 0xa3ce929d0e0e4736 || parent != 0x00f067aa0ba902b7 {
		t.Fatalf("round trip failed: %016x %016x %016x ok=%v", hi, lo, parent, ok)
	}
}

func TestStartRequestRemoteParent(t *testing.T) {
	tr := New(Config{SampleN: 1})
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	a := tr.StartRequest("ingest", "r1", in, time.Now())
	if !a.Remote() {
		t.Fatal("trace with valid traceparent not marked remote")
	}
	if got := a.TraceIDHex(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("TraceIDHex = %q, accepted trace-id not propagated", got)
	}
	echo := a.Traceparent()
	hi, lo, span, _, ok := ParseTraceparent(echo)
	if !ok || hi != 0x4bf92f3577b34da6 || lo != 0xa3ce929d0e0e4736 {
		t.Errorf("echoed traceparent %q does not carry the remote trace-id", echo)
	}
	if span == 0x00f067aa0ba902b7 {
		t.Error("echoed span-id must be ours, not the caller's parent-id")
	}
	tr.Finish(a, 200, time.Millisecond, false)

	// Malformed header mints fresh IDs.
	b := tr.StartRequest("ingest", "r2", "bogus", time.Now())
	if b.Remote() {
		t.Error("malformed traceparent marked remote")
	}
	if b.TraceIDHex() == "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Error("malformed traceparent inherited prior trace-id")
	}
	tr.Finish(b, 200, time.Millisecond, false)
}

func TestSpanTreeRecording(t *testing.T) {
	tr := New(Config{SampleN: 1})
	t0 := time.Now()
	a := tr.StartRequest("ingest", "req-1", "", t0)

	upd := a.StartAt("update", a.Root(), t0.Add(time.Millisecond))
	a.RecordAt("queue_wait", upd, t0.Add(time.Millisecond), t0.Add(2*time.Millisecond)).
		Int("depth", 3)
	a.RecordAt("apply", upd, t0.Add(2*time.Millisecond), t0.Add(3*time.Millisecond)).
		Int("coalesced", 2).Str("mode", "group")
	upd.EndAt(t0.Add(4 * time.Millisecond))

	if !tr.Finish(a, 200, 5*time.Millisecond, false) {
		t.Fatal("SampleN=1 trace dropped")
	}
	got := tr.Lookup("req-1")
	if got == nil {
		t.Fatal("Lookup(req-1) = nil")
	}
	spans := got.Spans()
	if len(spans) != 4 {
		t.Fatalf("span count = %d, want 4", len(spans))
	}
	if spans[0].Name != "request" || spans[0].Parent != 0 || spans[0].DurNs != (5*time.Millisecond).Nanoseconds() {
		t.Errorf("root span = %+v", spans[0])
	}
	byName := map[string]*Span{}
	for i := range spans {
		byName[spans[i].Name] = &spans[i]
	}
	if byName["update"].Parent != 1 {
		t.Errorf("update.Parent = %d, want root (1)", byName["update"].Parent)
	}
	for _, name := range []string{"queue_wait", "apply"} {
		if byName[name].Parent != byName["update"].ID {
			t.Errorf("%s.Parent = %d, want update (%d)", name, byName[name].Parent, byName["update"].ID)
		}
	}
	if byName["update"].DurNs != (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("update duration = %d", byName["update"].DurNs)
	}
	ap := byName["apply"]
	if ap.NAttr != 2 || ap.Attrs[0].Key != "coalesced" || ap.Attrs[0].Int != 2 ||
		ap.Attrs[1].Key != "mode" || ap.Attrs[1].Str != "group" {
		t.Errorf("apply attrs = %+v", ap.Attrs[:ap.NAttr])
	}
}

func TestSlabTruncation(t *testing.T) {
	tr := New(Config{SampleN: 1, MaxSpans: 4})
	a := tr.StartRequest("ingest", "trunc", "", time.Now())
	now := time.Now()
	for i := 0; i < 10; i++ {
		s := a.RecordAt("filler", a.Root(), now, now)
		// Refs past the slab must be inert, not panic.
		s.Int("i", int64(i))
		s.EndAt(now)
	}
	if a.SpanCount() != 4 {
		t.Errorf("SpanCount = %d, want slab cap 4", a.SpanCount())
	}
	if a.DroppedSpans() != 7 {
		t.Errorf("DroppedSpans = %d, want 7", a.DroppedSpans())
	}
	tr.Finish(a, 200, time.Millisecond, false)
	if tr.TruncatedSpans() != 7 {
		t.Errorf("TruncatedSpans = %d, want 7", tr.TruncatedSpans())
	}
}

func TestNilAndInertSafety(t *testing.T) {
	var nilTrace *Active
	nilTrace.Mark(KeepPanic)
	s := nilTrace.StartAt("x", nilTrace.Root(), time.Now())
	s.EndAt(time.Now())
	s.Int("k", 1)
	s.Str("k", "v")
	if s.ID() != 0 {
		t.Errorf("inert ref ID = %d", s.ID())
	}
	if nilTrace.Root().ID() != 0 {
		t.Error("nil trace root ref not inert")
	}
}

func TestTailSampling(t *testing.T) {
	tr := New(Config{SampleN: 10})
	for i := 0; i < 100; i++ {
		a := tr.StartRequest("list", fmt.Sprintf("ok-%d", i), "", time.Now())
		tr.Finish(a, 200, time.Millisecond, false)
	}
	if tr.Sampled() != 10 {
		t.Errorf("Sampled = %d, want 10 of 100 at 1-in-10", tr.Sampled())
	}
	if tr.Dropped() != 90 {
		t.Errorf("Dropped = %d, want 90", tr.Dropped())
	}
	if tr.Kept() != 10 {
		t.Errorf("Kept = %d, want 10", tr.Kept())
	}
}

func TestForcedRetention(t *testing.T) {
	cases := []struct {
		name   string
		status int
		slow   bool
		mark   KeepReason
		want   KeepReason
	}{
		{"slow", 200, true, 0, KeepSlow},
		{"error", 500, false, 0, KeepError},
		{"shed429", 429, false, 0, KeepShed | KeepError},
		{"shed503", 503, false, 0, KeepShed | KeepError},
		{"degraded", 200, false, KeepDegraded, KeepDegraded},
		{"panic", 500, false, KeepPanic, KeepPanic | KeepError},
	}
	for _, c := range cases {
		// SampleN huge so nothing survives by sampling alone.
		tr := New(Config{SampleN: 1 << 30})
		a := tr.StartRequest("ingest", c.name, "", time.Now())
		a.Mark(c.mark)
		if !tr.Finish(a, c.status, time.Millisecond, c.slow) {
			t.Errorf("%s: anomalous trace dropped", c.name)
			continue
		}
		got := tr.Lookup(c.name)
		if got == nil {
			t.Errorf("%s: not stored", c.name)
			continue
		}
		if got.Keep() != c.want {
			t.Errorf("%s: Keep = %v, want %v", c.name, got.Keep(), c.want)
		}
	}

	// An ordinary fast 200 at a huge SampleN is dropped.
	tr := New(Config{SampleN: 1 << 30})
	a := tr.StartRequest("ingest", "plain", "", time.Now())
	if tr.Finish(a, 200, time.Millisecond, false) {
		t.Error("ordinary trace kept despite 1-in-2^30 sampling")
	}
}

func TestKeepReasonString(t *testing.T) {
	if got := KeepReason(0).String(); got != "none" {
		t.Errorf("zero KeepReason = %q", got)
	}
	if got := (KeepSlow | KeepError).String(); got != "slow,error" {
		t.Errorf("slow|error = %q", got)
	}
	if !strings.Contains((KeepPanic | KeepDegraded).String(), "panic") {
		t.Errorf("panic reason missing from %q", (KeepPanic | KeepDegraded).String())
	}
}

func TestStoreByteCapAndEviction(t *testing.T) {
	const limit = 64 << 10
	tr := New(Config{SampleN: 1, StoreBytes: limit, MaxSpans: 8})
	for i := 0; i < 500; i++ {
		a := tr.StartRequest("ingest", fmt.Sprintf("r-%d", i), "", time.Now())
		a.RecordAt("decode", a.Root(), time.Now(), time.Now())
		tr.Finish(a, 200, time.Millisecond, false)
	}
	if tr.Evicted() == 0 {
		t.Error("500 kept traces into a 64KiB store evicted nothing")
	}
	if got := tr.StoreBytes(); got <= 0 || got > limit {
		t.Errorf("StoreBytes = %d, want within (0, %d]", got, limit)
	}
	if tr.StoreLimit() != limit {
		t.Errorf("StoreLimit = %d", tr.StoreLimit())
	}
	// The survivors are the newest.
	traces := tr.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces stored")
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].Start().After(traces[i-1].Start()) {
			t.Fatal("Traces() not sorted newest first")
		}
	}
}

func TestConcurrentRecordAndFinish(t *testing.T) {
	tr := New(Config{SampleN: 1, StoreBytes: 256 << 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := tr.StartRequest("ingest", fmt.Sprintf("c-%d-%d", g, i), "", time.Now())
				// Simulate the handler/worker pair racing on one slab.
				var inner sync.WaitGroup
				inner.Add(1)
				upd := a.StartAt("update", a.Root(), time.Now())
				go func() {
					defer inner.Done()
					a.RecordAt("queue_wait", upd, time.Now(), time.Now())
					a.Mark(KeepDegraded)
				}()
				a.RecordAt("decode", a.Root(), time.Now(), time.Now())
				inner.Wait()
				upd.EndAt(time.Now())
				tr.Finish(a, 200, time.Millisecond, false)
				if g == 0 && i%10 == 0 {
					_ = tr.Traces()
					_ = tr.Lookup("c-0-0")
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Kept() != 1600 {
		t.Errorf("Kept = %d, want 1600", tr.Kept())
	}
}

// recordSix records a request with six spans (the root plus five), two of
// them carrying attributes, and returns it unfinished.
func recordSix(tr *Tracer, reqID string) *Active {
	a := tr.StartRequest("ingest", reqID, "", time.Now())
	now := time.Now()
	up := a.StartAt("update", a.Root(), now)
	a.RecordAt("decode", a.Root(), now, now).Int("samples", 64)
	a.RecordAt("apply", up, now, now).Int("version", 7).Str("stream", "cam")
	a.RecordAt("wal_append", up, now, now)
	up.EndAt(now)
	a.RecordAt("render", a.Root(), now, now)
	return a
}

// TestKeptTraceFootprint bounds the heap a full store retains per kept
// trace: a kept trace holds only the spans it recorded, not the 48-slot
// slab it recorded them into (~12.4 KiB per trace before compaction).
func TestKeptTraceFootprint(t *testing.T) {
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // a second cycle empties the pools' victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	base := heap()
	tr := New(Config{SampleN: 1})
	slots := 0
	for i := range tr.store.shards {
		slots += len(tr.store.shards[i].slots)
	}
	for i := 0; i < 4*slots; i++ {
		a := recordSix(tr, "footprint")
		tr.Finish(a, 500, time.Millisecond, false)
	}
	kept := len(tr.Traces())
	if kept == 0 || tr.Evicted() == 0 {
		t.Fatalf("store holds %d traces and evicted %d: not full", kept, tr.Evicted())
	}
	per := (heap() - base) / float64(kept)
	runtime.KeepAlive(tr)
	t.Logf("heap per kept 6-span trace: %.0f bytes (%d traces in %d slots)", per, kept, slots)
	// ~1.8 KiB measured (Go 1.24, amd64): the header plus six spans.
	if per > 3<<10 {
		t.Errorf("a kept 6-span trace retains %.0f bytes of heap, want ≤ %d", per, 3<<10)
	}
	if got, est := tr.StoreBytes(), int64(kept)*(3<<10); got <= 0 || got > est {
		t.Errorf("StoreBytes = %d, want within (0, %d]", got, est)
	}
}

// TestKeepPathAllocs bounds what keeping a trace allocates in steady
// state: the compact span copy and a fresh header for the recycled slab,
// never a new 48-slot slab.
func TestKeepPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's sync.Pool drops Puts at random; runs without -race")
	}
	tr := New(Config{SampleN: 1})
	cycle := func() {
		tr.Finish(recordSix(tr, "allocs"), 500, time.Millisecond, false)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs > 2 {
		t.Errorf("keep path: %.1f allocs per trace, want ≤ 2", allocs)
	}
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("keep path: %.0f bytes allocated per trace", per)
	if per > 2560 {
		t.Errorf("keep path allocates %.0f bytes per trace, want ≤ 2560", per)
	}
}

// TestCompactionPreservesTrace pins that compaction changes nothing a
// reader sees: the stored trace's spans, span count and dropped-span
// count equal the slab's before Finish, truncated slab included.
func TestCompactionPreservesTrace(t *testing.T) {
	for _, maxSpans := range []int{4, DefaultMaxSpans} {
		tr := New(Config{SampleN: 1, MaxSpans: maxSpans})
		a := recordSix(tr, fmt.Sprintf("same-%d", maxSpans))
		want := append([]Span(nil), a.Spans()...)
		wantN, wantDropped := a.SpanCount(), a.DroppedSpans()
		tr.Finish(a, 503, 3*time.Millisecond, false)
		want[0].DurNs = (3 * time.Millisecond).Nanoseconds() // Finish closes the root

		got := tr.Lookup(fmt.Sprintf("same-%d", maxSpans))
		if got == nil {
			t.Fatalf("maxSpans %d: trace not stored", maxSpans)
		}
		if got.SpanCount() != wantN || got.DroppedSpans() != wantDropped {
			t.Errorf("maxSpans %d: SpanCount/DroppedSpans = %d/%d, want %d/%d",
				maxSpans, got.SpanCount(), got.DroppedSpans(), wantN, wantDropped)
		}
		if !reflect.DeepEqual(got.Spans(), want) {
			t.Errorf("maxSpans %d: spans changed by compaction:\n got %+v\nwant %+v", maxSpans, got.Spans(), want)
		}
		if cap(got.spans) != wantN {
			t.Errorf("maxSpans %d: kept trace holds %d span slots for %d spans", maxSpans, cap(got.spans), wantN)
		}
	}
}
