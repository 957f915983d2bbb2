package stream

import (
	"encoding/binary"
	"fmt"
)

// This file is the stream's durability surface: State captures everything a
// Stream needs to come back after a process death, ExportState/Restore move
// between the live and portable forms, and AppendBinary/DecodeState are the
// on-disk codec used by internal/wal's snapshot files.
//
// What is NOT persisted, deliberately:
//
//   - The contract (SetContract) and its violation history: not persisted
//     yet, so operators re-apply contracts after a restart. The check
//     keeps no private state (it reads the prefix ring), so a contract is
//     its bounds, its start and its counters; ROADMAP item 11 plans the
//     WAL record and State fields that carry them.
//   - The Inc extrema arrays. The retained rings fully determine them:
//     Restore rescans the window with rebuildLocked, the same scan a
//     settle makes after a long backlog, so the restored curves are
//     value-identical without trusting redundant (and corruptible)
//     extrema bytes.
//   - The absolute prefix-sum base. Curves are differences of prefix sums,
//     which are shift-invariant, so Restore starts the window's sums at 0.

// stateMagic versions the binary State encoding; bump it when the layout
// changes so a stale snapshot is rejected instead of misparsed.
const stateMagic = "WCMSTRM1"

// State is a portable snapshot of one Stream's durable fields, sufficient
// to Restore a stream whose every subsequent answer is value-identical to
// the original's. Produced by ExportState under the stream lock, so it is
// always internally consistent.
type State struct {
	// Config the stream ran with, resolved (defaults applied). Restore
	// refuses a State whose config disagrees with the caller's: silently
	// reinterpreting a ring recorded at one window length under another
	// would corrupt every curve.
	Window         int
	MaxK           int
	ReextractEvery int

	Version int64 // mutation counter at capture
	Total   int64 // samples ever ingested
	LastT   int64 // largest timestamp seen

	SinceAnchor   int   // samples settled since the last re-extraction
	Reextractions int64 // anchor runs performed
	Drift         int64 // anchor disagreements

	// The retained window in ingest order (oldest first), both columns the
	// same length n = min(Total, Window).
	Demands []int64
	Times   []int64
}

// ExportState captures the stream's durable state under one lock
// acquisition. It settles first, so the anchor counters (SinceAnchor
// included) are exact. The returned slices are fresh copies — the caller
// may hold them across later ingests.
func (s *Stream) ExportState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A settle error is the anchor kernel rejecting its own sizes, which
	// cannot happen; the rings exported below are authoritative anyway.
	s.settleLocked() //nolint:errcheck
	return State{
		Window:         s.window,
		MaxK:           s.maxK,
		ReextractEvery: s.reint,
		Version:        s.version.Load(),
		Total:          s.total,
		LastT:          s.lastT,
		SinceAnchor:    s.sinceAnchor,
		Reextractions:  s.reextractions,
		Drift:          s.drift,
		Demands:        s.demandsLocked(nil),
		Times:          appendRing(nil, s.times, s.total-int64(s.inWindowLocked()), s.total),
	}
}

// Restore builds a stream from a previously exported State. cfg must
// resolve to the same window/maxK/reextract parameters the State was
// captured under. The restored stream's curves, span tables, and query
// answers are value-identical to the original's at capture time, and it
// evolves identically under further ingest (anchor positions included —
// SinceAnchor survives). The contract does not survive (see the file
// comment); Version does, so version-tagged WAL records can be
// replayed exactly once on top.
func Restore(cfg Config, st State) (*Stream, error) {
	r := cfg.Resolved()
	if r.Window != st.Window || r.MaxK != st.MaxK || r.ReextractEvery != st.ReextractEvery {
		return nil, fmt.Errorf("%w: config window=%d maxK=%d reextract=%d, state window=%d maxK=%d reextract=%d",
			ErrBadConfig, r.Window, r.MaxK, r.ReextractEvery, st.Window, st.MaxK, st.ReextractEvery)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.growLocked(st.Total)
	start := st.Total - int64(len(st.Demands))
	var p int64 // the base point prefix[start] is the fresh ring's 0
	for i, d := range st.Demands {
		at := start + int64(i)
		s.times[at%int64(len(s.times))] = st.Times[i]
		p += d
		s.prefix[(at+1)%int64(len(s.prefix))] = p
	}
	s.total = st.Total
	s.lastT = st.LastT
	s.rebuildLocked()
	s.sinceAnchor = st.SinceAnchor
	s.reextractions = st.Reextractions
	s.drift = st.Drift
	s.version.Store(st.Version)
	return s, nil
}

// validate checks a decoded State's internal invariants, so Restore (and
// recovery paths feeding it attacker-corruptible bytes) can trust the
// shapes it indexes with.
func (st State) validate() error {
	n := int64(len(st.Demands))
	if len(st.Times) != len(st.Demands) {
		return fmt.Errorf("stream: state has %d demands, %d times", len(st.Demands), len(st.Times))
	}
	if st.Total < 0 || st.Version < 0 || st.SinceAnchor < 0 || st.Reextractions < 0 || st.Drift < 0 {
		return fmt.Errorf("stream: state with negative counters")
	}
	// A State is always captured from a live stream, whose config is in
	// resolved form: these bounds are what New enforces plus the resolved
	// invariants (MaxK capped to Window, ReextractEvery never 0).
	if st.Window < 2 || st.MaxK < 1 || st.MaxK > st.Window || st.ReextractEvery == 0 {
		return fmt.Errorf("stream: state config window=%d maxK=%d reextract=%d is not in resolved form",
			st.Window, st.MaxK, st.ReextractEvery)
	}
	want := st.Total
	if want > int64(st.Window) {
		want = int64(st.Window)
	}
	if n != want {
		return fmt.Errorf("stream: state retains %d samples, total=%d window=%d implies %d", n, st.Total, st.Window, want)
	}
	// Timestamps a real stream can retain are non-negative (validation
	// starts from lastT == 0) and non-decreasing in ingest order.
	last := int64(0)
	for i := int64(0); i < n; i++ {
		if st.Demands[i] < 0 {
			return fmt.Errorf("stream: state demand %d at index %d is negative", st.Demands[i], i)
		}
		if st.Times[i] < last {
			return fmt.Errorf("stream: state timestamps decrease at index %d", i)
		}
		last = st.Times[i]
	}
	if n > 0 && st.LastT != last {
		return fmt.Errorf("stream: state lastT=%d but newest retained timestamp is %d", st.LastT, last)
	}
	return nil
}

// AppendBinary appends the binary encoding of the state to dst and returns
// the extended slice. The layout (all little-endian) is the stateMagic
// followed by the fixed fields, the retained count, and the two columns —
// integrity (CRC) is the container's job (internal/wal frames and snapshot
// files both checksum their payloads).
func (st State) AppendBinary(dst []byte) []byte {
	dst = append(dst, stateMagic...)
	for _, v := range []int64{
		int64(st.Window), int64(st.MaxK), int64(st.ReextractEvery),
		st.Version, st.Total, st.LastT,
		int64(st.SinceAnchor), st.Reextractions, st.Drift,
		int64(len(st.Demands)),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range st.Demands {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range st.Times {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// stateFixedFields is the count of int64 fields between the magic and the
// columns in the binary encoding.
const stateFixedFields = 10

// DecodeState parses a binary State. It never panics, whatever bytes
// arrive (FuzzSnapshot feeds it corrupted input), and validates the decoded
// invariants so a successful decode is always Restorable shape-wise.
func DecodeState(b []byte) (State, error) {
	if len(b) < len(stateMagic)+8*stateFixedFields {
		return State{}, fmt.Errorf("stream: state blob %d bytes, need at least %d",
			len(b), len(stateMagic)+8*stateFixedFields)
	}
	if string(b[:len(stateMagic)]) != stateMagic {
		return State{}, fmt.Errorf("stream: state magic %q, want %q", b[:len(stateMagic)], stateMagic)
	}
	b = b[len(stateMagic):]
	var f [stateFixedFields]int64
	for i := range f {
		f[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	b = b[8*stateFixedFields:]
	st := State{
		Window: int(f[0]), MaxK: int(f[1]), ReextractEvery: int(f[2]),
		Version: f[3], Total: f[4], LastT: f[5],
		SinceAnchor: int(f[6]), Reextractions: f[7], Drift: f[8],
	}
	n := f[9]
	if n < 0 || n > int64(st.Window) || st.Window < 2 || st.Window > 1<<31 {
		return State{}, fmt.Errorf("stream: state count %d with window %d", n, st.Window)
	}
	if int64(len(b)) != 16*n {
		return State{}, fmt.Errorf("stream: state count %d implies %d column bytes, have %d", n, 16*n, len(b))
	}
	st.Demands = make([]int64, n)
	st.Times = make([]int64, n)
	for i := int64(0); i < n; i++ {
		st.Demands[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	b = b[8*n:]
	for i := int64(0); i < n; i++ {
		st.Times[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	if err := st.validate(); err != nil {
		return State{}, err
	}
	return st, nil
}
