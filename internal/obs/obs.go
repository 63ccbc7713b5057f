// Package obs is the tree's observability layer: a lock-free per-tree
// metrics registry (latency histograms for operations, maintenance actions
// and I/O), and a bounded, drop-oldest trace ring recording SMO lifecycle
// transitions — enqueued → started → aborted-by-D_X / aborted-by-D_D /
// completed / requeued — plus latch-wait episodes, lock no-wait failures,
// deadlock victims and drain bailouts.
//
// Everything is nil-receiver safe: a tree built without observability holds
// a nil *Registry and every call collapses to a pointer test. Two build
// tags adjust the layer globally:
//
//	obstrace  — force full metrics+tracing on every tree (CI runs the whole
//	            suite this way so instrumentation is exercised under -race).
//	obsoff    — compile the instrumentation out entirely (Compiled=false
//	            makes every guarded site dead code), giving CI an
//	            uninstrumented baseline for the overhead gate.
package obs

import "time"

// Config enables and sizes a tree's observability. The zero value disables
// everything; a pointer to it in Options.Observability turns the layer on.
type Config struct {
	// Metrics enables the latency histograms (operations, maintenance
	// actions, I/O) and the long-latch-wait counter.
	Metrics bool

	// Trace enables the SMO lifecycle trace ring.
	Trace bool

	// TraceCapacity bounds the trace ring; once full the oldest events are
	// dropped (counted in Snapshot.TraceDropped). Default 4096.
	TraceCapacity int

	// LatchWaitThreshold is the blocking-latch-acquisition duration at or
	// above which a wait is counted as a long wait and, with Trace on,
	// recorded as an EvLatchWait event. Default 1ms.
	LatchWaitThreshold time.Duration

	// Spans enables sampling-based per-operation span tracing: 1 in
	// SampleEvery operations carries a span context through the hot path,
	// recording timed stages (optimistic descent, latch waits, buffer
	// fetches vs. misses, lock waits, WAL appends, commit park and
	// force). Sampled spans feed the per-stage latency histograms, the
	// sampled-span ring (Chrome trace export) and the slow-op flight
	// recorder. Enabling Spans implies Metrics.
	Spans bool

	// SampleEvery is the span sampling rate: 1 in SampleEvery operations is
	// traced (default 1024; 1 traces every operation).
	SampleEvery int

	// SlowOpThreshold is the operation latency at or above which an
	// operation enters the slow-op flight recorder. Zero selects the
	// adaptive default: the p999 of the merged operation histograms,
	// floored at 1ms, recomputed as samples accumulate.
	SlowOpThreshold time.Duration

	// SpanCapacity bounds the sampled-span ring; once full the oldest spans
	// are dropped. Default 512.
	SpanCapacity int

	// FlightCapacity bounds the slow-op flight recorder ring. Default 64.
	FlightCapacity int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 4096
	}
	if c.LatchWaitThreshold <= 0 {
		c.LatchWaitThreshold = time.Millisecond
	}
	if c.Spans {
		// Spans feed the per-stage histograms and the adaptive slow-op
		// threshold, both of which live in the metrics section.
		c.Metrics = true
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1024
	}
	if c.SpanCapacity <= 0 {
		c.SpanCapacity = 512
	}
	if c.FlightCapacity <= 0 {
		c.FlightCapacity = 64
	}
	return c
}

// Op identifies a foreground operation class for the latency histograms.
type Op uint8

// Operation classes.
const (
	OpSearch Op = iota
	OpInsert
	OpUpdate
	OpDelete
	OpScan
	// OpCommit is a transaction commit: the commit record append plus the
	// durability wait the configured mode imposes (under sync, the wait
	// for and the duration of the log force covering it).
	OpCommit
	// OpCount is the number of operation classes.
	OpCount
)

// String returns the lowercase operation name.
func (o Op) String() string {
	switch o {
	case OpSearch:
		return "search"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpCommit:
		return "commit"
	default:
		return "op?"
	}
}

// opFromString is the inverse of Op.String, for span decode.
func opFromString(s string) Op {
	for o := OpSearch; o < OpCount; o++ {
		if o.String() == s {
			return o
		}
	}
	return OpCount
}

// Action identifies a maintenance-action kind (mirrors the to-do queue's
// action kinds) for histograms and trace events.
type Action uint8

// Maintenance action kinds.
const (
	ActPost Action = iota
	ActDelete
	ActShrink
	ActReclaim
	// ActCount is the number of action kinds.
	ActCount
)

// String returns the lowercase action name.
func (a Action) String() string {
	switch a {
	case ActPost:
		return "post"
	case ActDelete:
		return "delete"
	case ActShrink:
		return "shrink"
	case ActReclaim:
		return "reclaim"
	default:
		return "action?"
	}
}

// EventKind classifies a trace event.
type EventKind uint8

// Trace event kinds. The SMO lifecycle is: EvEnqueued → EvStarted →
// {EvCompleted, EvAbortDX, EvAbortDD, EvAbortIdentity, EvAbortEdge,
// EvSkipFit, EvRequeued}. The remaining kinds record the §2.4 lock/latch
// interaction and scheduler distress.
const (
	// EvEnqueued: an action entered the to-do queue.
	EvEnqueued EventKind = iota + 1
	// EvStarted: a worker (or inline assist / drain) began processing.
	EvStarted
	// EvCompleted: the action finished (including found-already-done).
	EvCompleted
	// EvAbortDX: abandoned because the global index-delete state D_X
	// changed (§3.1); DXWant/DXSeen carry the remembered/observed values.
	EvAbortDX
	// EvAbortDD: a posting abandoned because the parent's data-delete
	// state D_D changed (§3.2); DDWant/DDSeen carry the values.
	EvAbortDD
	// EvAbortIdentity: abandoned because the remembered parent reference
	// no longer names the same node incarnation.
	EvAbortIdentity
	// EvAbortEdge: a consolidation abandoned for structural reasons
	// (leftmost child, sibling mismatch, victim gone).
	EvAbortEdge
	// EvSkipFit: a consolidation skipped — the victim refilled or does not
	// fit its left sibling.
	EvSkipFit
	// EvRequeued: the action was put back for a later retry.
	EvRequeued
	// EvDrainBailout: DrainTodo gave up on a queue that refused to shrink.
	EvDrainBailout
	// EvLatchWait: a blocking latch acquisition waited at least
	// Config.LatchWaitThreshold; Dur is the wait.
	EvLatchWait
	// EvLockNoWait: a record lock no-wait request was refused under the
	// leaf latch (§2.4), forcing the release-wait-relatch path.
	EvLockNoWait
	// EvDeadlockVictim: a transaction's blocking lock request was chosen
	// as the deadlock victim.
	EvDeadlockVictim
	// EvRelatchAbort: a transaction aborted because delete state changed
	// during the §2.4 re-latch.
	EvRelatchAbort
	// EvOptFallback: an optimistic (latch-free) read exhausted its restart
	// budget and fell back to the pessimistic latch-coupled traversal.
	EvOptFallback
	// EvTraverseExhausted: a latch-coupled traversal hit its restart
	// budget (live-lock); the operation failed.
	EvTraverseExhausted
	// EvRecoveryRedo: crash recovery completed its redo/undo passes; Page
	// carries the number of records replayed, Dur the recovery wall time.
	EvRecoveryRedo
	// EvRecoveryTornPage: redo found a torn (checksum-failing) page image
	// and overwrote it with the after-image logged by the page's first
	// change after the checkpoint; Page is the page ID.
	EvRecoveryTornPage
	// EvRecoveryTornTail: the log device found garbage past its last valid
	// frame (an append interrupted by the power cut); Page carries the
	// trailing byte count.
	EvRecoveryTornTail
)

// String returns the event kind's wire name (used in trace dumps).
func (k EventKind) String() string {
	switch k {
	case EvEnqueued:
		return "enqueued"
	case EvStarted:
		return "started"
	case EvCompleted:
		return "completed"
	case EvAbortDX:
		return "abort-dx"
	case EvAbortDD:
		return "abort-dd"
	case EvAbortIdentity:
		return "abort-identity"
	case EvAbortEdge:
		return "abort-edge"
	case EvSkipFit:
		return "skip-fit"
	case EvRequeued:
		return "requeued"
	case EvDrainBailout:
		return "drain-bailout"
	case EvLatchWait:
		return "latch-wait"
	case EvLockNoWait:
		return "lock-no-wait"
	case EvDeadlockVictim:
		return "deadlock-victim"
	case EvRelatchAbort:
		return "relatch-abort"
	case EvOptFallback:
		return "opt-fallback"
	case EvTraverseExhausted:
		return "traverse-exhausted"
	case EvRecoveryRedo:
		return "recovery-redo"
	case EvRecoveryTornPage:
		return "recovery-torn-page"
	case EvRecoveryTornTail:
		return "recovery-torn-tail"
	default:
		return "event?"
	}
}

// eventKindFromString is the inverse of EventKind.String, for trace decode.
func eventKindFromString(s string) EventKind {
	for k := EvEnqueued; k <= EvRecoveryTornTail; k++ {
		if k.String() == s {
			return k
		}
	}
	return 0
}

// actionFromString is the inverse of Action.String, for trace decode.
func actionFromString(s string) Action {
	for a := ActPost; a < ActCount; a++ {
		if a.String() == s {
			return a
		}
	}
	return ActCount
}
