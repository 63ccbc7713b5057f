package core

import (
	"time"

	"blinktree/internal/buffer"
	"blinktree/internal/latch"
	"blinktree/internal/lock"
	"blinktree/internal/obs"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// TreeMetrics is one consistent observability snapshot of a tree: every
// counter family the tree maintains, gathered in a single call so exporters
// (expvar, Prometheus) do not stitch together readings from different
// instants. Each family is internally consistent (atomic loads); families
// are read back-to-back.
type TreeMetrics struct {
	Stats  Stats         // operation/SMO/maintenance-scheduler counters
	Latch  latch.Stats   // per-tree latch activity
	Pool   buffer.Stats  // buffer pool
	Store  storage.Stats // page store
	Locks  lock.Stats    // record lock manager
	Height uint8         // current root level

	// LogAppends/LogForces are zero when logging is disabled.
	LogAppends uint64
	LogForces  uint64

	// WALGroup counts the commit path's activity (commits acknowledged
	// after a force, the forces that covered them, immediate acks); zero
	// when logging is disabled.
	WALGroup wal.GroupStats

	// Recovery reports what crash recovery found and did at open time
	// (Recovered false when the tree started fresh or without a log).
	Recovery RecoveryStats

	// Obs holds the latency histograms and trace-ring counters; nil when
	// Options.Observability metrics are disabled.
	Obs *obs.Snapshot
}

// Snapshot gathers the tree's full metrics in one call.
func (t *Tree) Snapshot() TreeMetrics {
	m := TreeMetrics{
		Stats:    t.Stats(),
		Latch:    t.latchRec.Snapshot(),
		Pool:     t.pool.Snapshot(),
		Store:    t.store.Stats(),
		Locks:    t.locks.Snapshot(),
		Height:   t.Height(),
		Recovery: t.RecoveryStats(),
		Obs:      t.obs.Snapshot(),
	}
	m.LogAppends, m.LogForces = t.LogStats()
	if t.log != nil {
		m.WALGroup = t.log.GroupStats()
	}
	return m
}

// LatchStats returns this tree's latch activity: node latches and the D_X
// latch, nothing from other trees in the process.
func (t *Tree) LatchStats() latch.Stats { return t.latchRec.Snapshot() }

// TraceEvents returns the buffered trace events, oldest first; nil when
// tracing is disabled.
func (t *Tree) TraceEvents() []obs.Event { return t.obs.Events() }

// Registry exposes the tree's observability registry (nil when disabled);
// the bench harness reads histograms from it directly.
func (t *Tree) Registry() *obs.Registry { return t.obs }

// obsStart returns an operation start time, or the zero time when metrics
// are off — the disabled path is one nil check and no clock read.
func (t *Tree) obsStart() time.Time {
	if t.obs.MetricsOn() {
		return time.Now()
	}
	return time.Time{}
}

// obsBegin starts an operation's observation: the histogram start time plus
// a span when the sampler selects this operation (nil otherwise). The
// metrics-off path is one nil check, no clock read, no span.
func (t *Tree) obsBegin(op obs.Op) (time.Time, *obs.Span) {
	if !t.obs.MetricsOn() {
		return time.Time{}, nil
	}
	return time.Now(), t.obs.SpanStart(op)
}

// obsEnd finishes an operation's observation: records the latency
// histogram, finishes the span (sampled ops), or checks the slow-op flight
// recorder threshold (unsampled ops). op is passed again because Put only
// resolves insert-vs-update at the end.
func (t *Tree) obsEnd(op obs.Op, t0 time.Time, sp *obs.Span) {
	if t0.IsZero() {
		return
	}
	d := time.Since(t0)
	t.obs.ObserveOp(op, d)
	if sp != nil {
		t.obs.SpanEnd(sp, op, d)
	} else {
		t.obs.SlowOp(op, d)
	}
}

// tracing reports whether trace events should be built and emitted.
func (t *Tree) tracing() bool { return t.obs.TraceOn() }

// obsAction maps a scheduler action kind onto its obs label.
func obsAction(k actionKind) obs.Action {
	switch k {
	case actPost:
		return obs.ActPost
	case actDelete:
		return obs.ActDelete
	case actShrink:
		return obs.ActShrink
	default:
		return obs.ActReclaim
	}
}

// traceSMO emits one SMO lifecycle event for a, filling in the common
// fields (kind label, origin page, level, node epoch).
func (t *Tree) traceSMO(kind obs.EventKind, a *action) {
	if !t.tracing() {
		return
	}
	t.obs.Emit(obs.Event{
		Kind:   kind,
		Action: obsAction(a.kind),
		Page:   uint64(a.origID),
		Level:  a.level,
		Epoch:  a.origEpoch,
	})
}

// traceAbort emits an SMO abort event carrying the delete-state values that
// caused it: the remembered value (want) versus what was observed (seen).
func (t *Tree) traceAbort(kind obs.EventKind, a *action, want, seen uint64) {
	if !t.tracing() {
		return
	}
	e := obs.Event{
		Kind:   kind,
		Action: obsAction(a.kind),
		Page:   uint64(a.origID),
		Level:  a.level,
		Epoch:  a.origEpoch,
	}
	switch kind {
	case obs.EvAbortDX:
		e.DXWant, e.DXSeen = want, seen
	case obs.EvAbortDD:
		e.DDWant, e.DDSeen = want, seen
	}
	t.obs.Emit(e)
}

// traceOptFallback emits the event for an optimistic read that exhausted
// its restart budget and fell back to the latched traversal.
func (t *Tree) traceOptFallback() {
	if !t.tracing() {
		return
	}
	t.obs.Emit(obs.Event{Kind: obs.EvOptFallback})
}

// traverseExhausted counts a traversal that hit its restart budget
// (live-lock) and emits the matching trace event.
func (t *Tree) traverseExhausted() {
	t.c.traverseExhausted.Add(1)
	if t.tracing() {
		t.obs.Emit(obs.Event{Kind: obs.EvTraverseExhausted})
	}
}

// obsActionDone records an action-processing latency started at t0.
func (t *Tree) obsActionDone(k actionKind, t0 time.Time) {
	if !t0.IsZero() {
		t.obs.ObserveAction(obsAction(k), time.Since(t0))
	}
}
