package server

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// The auditor checks Definition 1 off the request path. Each auditTick it
// audits at most one live stream (stream.Stream.Audit): settle, re-extract
// the window with the batch kernel, compare. A mismatch rebuilds the
// stream from its window and bumps its version, so no cached answer taken
// from the wrong extrema is served again. Each audit and each mismatch is
// counted as it happens, into wcmd_audit_checked_total and
// wcmd_audit_mismatch_total.
//
// Audit skips a stream unchanged since its last audit or holding no
// extrema yet, so the auditor never grows a stream no read asked for.
// Ticks visit the shards round robin, and a shard's streams in Go's
// randomized map order: an eligible stream that stops changing is audited
// within as many ticks as there are eligible streams.

// auditTick is the auditor's period. A tick that audits a full stream at
// the default window and curve domain costs ~0.46 ms (BenchmarkAuditTick,
// 2-vCPU Xeon, Go 1.24), so the auditor stays under 0.2% of one core.
const auditTick = 250 * time.Millisecond

// auditor is the audit loop's state; next and buf belong to its goroutine.
type auditor struct {
	stop, done chan struct{}
	once       sync.Once
	next       int         // shard the next tick starts at
	buf        []auditItem // one shard's streams, reused across ticks
}

type auditItem struct {
	id string
	e  *entry
}

func (s *Server) startAuditor() {
	s.audit.stop, s.audit.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.audit.done)
		t := time.NewTicker(auditTick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.auditOnce()
			case <-s.audit.stop:
				return
			}
		}
	}()
}

// stopAuditor stops the loop and waits out its tick in progress. Safe to
// call more than once.
func (s *Server) stopAuditor() {
	s.audit.once.Do(func() {
		close(s.audit.stop)
		<-s.audit.done
	})
}

// auditOnce is one tick: it audits the first eligible live stream, trying
// each shard at most once, and reports whether an audit ran. Streams are
// gathered under the shard lock and audited after releasing it.
func (s *Server) auditOnce() bool {
	for range s.shards {
		sh := s.shards[s.audit.next]
		s.audit.next = (s.audit.next + 1) % len(s.shards)
		buf := s.audit.buf[:0]
		sh.mu.RLock()
		for id, e := range sh.streams {
			buf = append(buf, auditItem{id, e})
		}
		sh.mu.RUnlock()
		s.audit.buf = buf
		ran := false
		for _, it := range buf {
			if it.e.deleted.Load() {
				continue
			}
			var mismatch bool
			var err error
			if ran, mismatch, err = it.e.st.Audit(); err != nil || mismatch {
				s.logger.LogAttrs(context.Background(), slog.LevelError, "stream audit failed",
					slog.String("stream", it.id), slog.Bool("mismatch_rebuilt", mismatch), slog.Any("error", err))
			}
			if mismatch {
				s.metrics.auditMismatch.Add(1)
			}
			if ran {
				s.metrics.auditChecked.Add(1)
				break
			}
		}
		clear(buf) // pin no deleted stream until the next tick
		if ran {
			return true
		}
	}
	return false
}
