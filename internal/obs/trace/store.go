package trace

import "sync/atomic"

// store retains kept traces in one lock-free ring: a power-of-two slot
// array with a monotone cursor. Insert is one atomic add plus one pointer
// swap; eviction is implicit (the swapped-out oldest trace is released to
// the GC — never back to the pool, since a concurrent reader may still
// hold the pointer). Only kept traces are inserted, so the one shared
// cursor is never contended enough to matter. The byte cap is hard by
// construction: slot count ≤ limit / estimated-max-trace-size, so retained
// bytes can never exceed the limit even with every slot full, and the
// bytes counter tracks the actual footprint for the store-bytes gauge.
type store struct {
	cursor  atomic.Uint64
	slots   []atomic.Pointer[Active]
	limit   int64
	bytes   atomic.Int64
	evicted atomic.Uint64
}

// newStore sizes the ring from the byte cap: the largest power of two that
// fits, and at least four slots even for absurdly small caps so the store
// always holds the most recent anomalies.
func newStore(limitBytes, estTrace int64) *store {
	n := int64(4)
	for n*2 <= limitBytes/estTrace {
		n *= 2
	}
	return &store{slots: make([]atomic.Pointer[Active], n), limit: limitBytes}
}

// insert stores a finished trace, evicting the oldest when the ring has
// wrapped.
func (st *store) insert(t *Active) {
	i := st.cursor.Add(1) - 1
	old := st.slots[i&uint64(len(st.slots)-1)].Swap(t)
	st.bytes.Add(t.szBytes)
	if old != nil {
		st.bytes.Add(-old.szBytes)
		st.evicted.Add(1)
	}
}

// snapshot collects the currently stored traces, newest first.
func (st *store) snapshot() []*Active {
	var out []*Active
	c, n := st.cursor.Load(), uint64(len(st.slots))
	for k := uint64(0); k < n; k++ { // newest inserted first
		if t := st.slots[(c-1-k)&(n-1)].Load(); t != nil {
			out = append(out, t)
		}
	}
	// Insertion-sort by start time descending: insertion order is already
	// nearly that order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].start.After(out[j-1].start); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// lookup returns the newest stored trace with the given request ID.
func (st *store) lookup(reqID string) *Active {
	var best *Active
	for i := range st.slots {
		t := st.slots[i].Load()
		if t != nil && t.reqID == reqID && (best == nil || t.start.After(best.start)) {
			best = t
		}
	}
	return best
}
