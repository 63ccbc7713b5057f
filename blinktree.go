// Package blinktree is a concurrent B-link tree with simple, robust node
// deletion, reproducing David Lomet's "Simple, Robust and Highly Concurrent
// B-trees with Node Deletion" (ICDE 2004).
//
// The tree supports fully concurrent reads, writes, range scans and
// transactions. Structure modifications beyond the mandatory first half
// split — index-term postings, node consolidations, root changes — are lazy
// background actions that are simply abandoned when the paper's delete
// state (a global index-delete counter D_X and per-parent data-delete
// counters D_D) shows they might touch a deleted node; the B-link-tree
// property keeps searches correct regardless. Node deletion consolidates
// any under-utilized node into its left sibling, without waiting for it to
// empty.
//
// Quick start:
//
//	t, err := blinktree.Open(blinktree.Options{})
//	if err != nil { ... }
//	defer t.Close()
//	t.Put([]byte("k"), []byte("v"))
//	v, err := t.Get([]byte("k"))
//
// Open with a Path for a durable, write-ahead-logged tree that recovers
// from crashes; leave Path empty for a volatile in-memory tree.
package blinktree

import (
	"errors"
	"path/filepath"
	"time"

	"blinktree/internal/buffer"
	"blinktree/internal/core"
	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// Errors returned by tree operations.
var (
	// ErrKeyNotFound is returned by Get and Delete of an absent key.
	ErrKeyNotFound = core.ErrKeyNotFound
	// ErrEmptyKey is returned for zero-length keys.
	ErrEmptyKey = core.ErrEmptyKey
	// ErrEntryTooLarge is returned when a record cannot fit in a node.
	ErrEntryTooLarge = core.ErrEntryTooLarge
	// ErrClosed is returned by operations on a closed tree.
	ErrClosed = core.ErrClosed
	// ErrTxnDone is returned by operations on a finished transaction.
	ErrTxnDone = core.ErrTxnDone
	// ErrTxnAborted is returned when a transaction was rolled back (as a
	// deadlock victim, or because delete state invalidated a re-latch);
	// retry the transaction.
	ErrTxnAborted = core.ErrTxnAborted
	// ErrPoolFull is returned when an operation needed a buffer-pool frame
	// and every frame stayed pinned by other operations for a full second:
	// the cache is too small for the concurrency (see Options.CacheSize).
	// The tree stays consistent and the operation can be retried.
	ErrPoolFull = buffer.ErrPoolFull
)

// Baseline selects one of the paper's comparator algorithms instead of the
// paper's method. The default (BaselinePaper) is the contribution itself.
type Baseline int

const (
	// BaselinePaper is the paper's delete-state method (the default).
	BaselinePaper Baseline = iota
	// BaselineDrain deletes nodes with the drain approach: only empty
	// nodes, an extra logged mark, and a reference-drain grace period.
	BaselineDrain
	// BaselineSerialSMO serializes all structure modifications under one
	// global tree latch with eager index-term posting (ARIES/IM-style).
	BaselineSerialSMO
	// BaselineNoDelete disables node deletion entirely (and with it latch
	// coupling and delete-state bookkeeping).
	BaselineNoDelete
)

// DurabilityMode selects when Txn.Commit acknowledges relative to the log
// force that makes the commit durable; see Options.Durability.
type DurabilityMode = wal.DurabilityMode

const (
	// DurabilitySync (the default) returns from Commit after a log force
	// covering the commit record: the committing goroutine's own if none is
	// in flight, otherwise the next one, shared with every commit that
	// arrived meanwhile. Nothing acknowledged is ever lost.
	DurabilitySync = wal.DurSync
	// Deprecated: DurabilityGroup was a second implementation of
	// DurabilitySync's promise and is now another name for it. The name
	// remains only because benchmark/target.go (lines 38, 168 and 294,
	// the last as the flag value "group"), frozen for non-benchmark
	// changes, still uses it; a benchmark-only change removes those uses,
	// and then this name goes.
	DurabilityGroup = wal.DurGroup
	// DurabilityPeriodic acknowledges Commit immediately; a background
	// log-writer forces every FlushInterval or after FlushBytes of
	// unforced log. A crash — of the machine or of the process — loses at
	// most the unforced window.
	DurabilityPeriodic = wal.DurPeriodic
	// DurabilityAsync acknowledges Commit immediately and nudges the
	// log-writer to force opportunistically. A crash of the machine or of
	// the process loses at most the commits not yet forced; FlushLog is the
	// explicit durability barrier.
	DurabilityAsync = wal.DurAsync
)

// ParseDurabilityMode parses a durability mode's flag name: "sync",
// "periodic" or "async" (the empty string, and the deprecated spelling
// "group", mean sync). Command binaries use it for their -durability flags.
func ParseDurabilityMode(s string) (DurabilityMode, error) { return wal.ParseDurabilityMode(s) }

// FeatureMode is the type of the deprecated Options.Combining, a tri-state
// switch no engine feature reads any more.
type FeatureMode = core.FeatureMode

// The three FeatureMode values; Options.Combining ignores all of them.
const (
	FeatureDefault = core.FeatureDefault
	FeatureOn      = core.FeatureOn
	FeatureOff     = core.FeatureOff
)

// Options configures a Tree. The zero value is a sensible volatile tree:
// 4 KiB pages, 4096-node cache, background maintenance workers.
type Options struct {
	// Path, when non-empty, is a directory for the durable files
	// (pages.db, wal.log). The tree is write-ahead logged and recovers
	// committed state after a crash. Empty means volatile and in-memory.
	Path string

	// PageSize is the node size in bytes (default 4096).
	PageSize int
	// Comparator orders keys; nil means bytewise. A custom comparator must
	// order the empty key below every non-empty key, and keys comparing
	// equal are the same record. ScanPrefix and separator truncation are
	// bytewise-only (truncation is disabled automatically).
	Comparator func(a, b []byte) int
	// CacheSize is the buffer pool capacity in nodes (default 4096). Every
	// node an operation touches is pinned in a frame while it is latched or
	// being validated, and latch/pin coupling holds at most three at once
	// (parent, node, sibling), so size the pool at no less than 3 × (the
	// goroutines calling the tree concurrently + Workers). An operation that
	// finds every frame pinned waits for an unpin, up to one second, and then
	// fails with ErrPoolFull. A pool that merely holds the working set's
	// index levels is the performance floor; this is the correctness one.
	CacheSize int
	// MinFill is the consolidation threshold as a fraction of PageSize
	// (default 0.30): nodes below it are merged into their left sibling.
	MinFill float64
	// Workers is the number of background maintenance goroutines
	// processing lazy structure modifications (default 2). Use -1 for
	// none: the tree then starts neither maintenance nor bulk-load
	// goroutines, so maintenance runs only when Maintain is called, and
	// BulkLoad builds on the calling goroutine.
	Workers int
	// Baseline optionally selects a comparator algorithm.
	Baseline Baseline

	// Durability selects when Txn.Commit acknowledges relative to the log
	// force that makes the commit durable: after it (DurabilitySync, the
	// default) or before it (DurabilityPeriodic, DurabilityAsync). Only
	// meaningful with a Path: volatile trees ignore it. See the
	// DurabilityMode constants for each mode's contract.
	Durability DurabilityMode
	// FlushInterval is DurabilityPeriodic's background force period
	// (0 means the default, 2ms). Negative disables autonomous forcing in
	// the periodic and async modes; commits are then durable only at
	// explicit FlushLog/Checkpoint/Close points.
	FlushInterval time.Duration
	// FlushBytes is DurabilityPeriodic's unforced-byte threshold (0 means
	// the default, 256 KiB): once more than this many appended log bytes
	// await a force, the log-writer forces early.
	FlushBytes int64

	// Deprecated: Combining selected hot-leaf operation combining, which
	// has been removed (EXPERIMENTS.md E14): every value is accepted and
	// ignored. The field remains only because benchmark/workload.go, frozen
	// for non-benchmark changes, still sets it; a benchmark-only change
	// removes that setter, and then this field goes.
	Combining FeatureMode

	// Observability enables per-operation latency histograms
	// (Observability.Metrics), the SMO lifecycle trace ring
	// (Observability.Trace), and/or sampled per-operation span tracing
	// (Observability.Spans). Nil disables all of them; the hot paths then
	// pay only a nil-pointer check (see the overhead benchmark in
	// internal/bench). Snapshot, TraceEvents, Spans/SlowSpans and the
	// blinkmetrics HTTP handler read what this collects.
	Observability *Observability
}

// Observability configures metrics and tracing; see obs.Config.
type Observability = obs.Config

// Metrics is a tree's full observability snapshot: operation counters,
// scheduler, latch, buffer pool, store, lock and log statistics, plus (when
// enabled) latency histograms.
type Metrics = core.TreeMetrics

// TraceEvent is one structured trace event: an SMO lifecycle transition, a
// long latch wait, a no-wait lock failure, a deadlock victim.
type TraceEvent = obs.Event

// OpTrace is one finished operation span: a sampled operation's total
// latency broken into exclusive per-stage times (descent, latch waits,
// buffer fetches, lock waits, WAL append, commit park/force), with a
// bounded interval timeline. Spans and SlowSpans return them; see
// Observability.Spans.
type OpTrace = obs.OpTrace

// Tree is a concurrent ordered key/value map backed by the B-link tree.
// All methods are safe for concurrent use.
type Tree struct {
	inner *core.Tree
	// devClose closes the log device on Close (file-backed trees).
	devClose func() error
}

// Open creates or recovers a tree.
func Open(opts Options) (*Tree, error) {
	cOpts := core.Options{
		PageSize:  opts.PageSize,
		CacheSize: opts.CacheSize,
		MinFill:   opts.MinFill,
		Workers:   opts.Workers,
		Compare:   opts.Comparator,

		Durability:    opts.Durability,
		FlushInterval: opts.FlushInterval,
		FlushBytes:    opts.FlushBytes,
	}
	if opts.Workers < 0 {
		cOpts.Workers = core.WorkersNone
	}
	cOpts.Observability = opts.Observability
	switch opts.Baseline {
	case BaselinePaper:
	case BaselineDrain:
		cOpts.DeletePolicy = core.Drain
	case BaselineSerialSMO:
		cOpts.SerializeSMO = true
	case BaselineNoDelete:
		cOpts.NoDeleteSupport = true
	default:
		return nil, errors.New("blinktree: unknown baseline")
	}

	t := &Tree{}
	if opts.Path != "" {
		pageSize := cOpts.PageSize
		if pageSize == 0 {
			pageSize = 4096
		}
		store, err := storage.OpenFileStore(filepath.Join(opts.Path, "pages.db"), pageSize)
		if err != nil {
			return nil, err
		}
		dev, err := wal.OpenFileDevice(filepath.Join(opts.Path, "wal.log"))
		if err != nil {
			store.Close()
			return nil, err
		}
		cOpts.Store = store
		cOpts.LogDevice = dev
		t.devClose = dev.Close
	}
	inner, err := core.New(cOpts)
	if err != nil {
		if t.devClose != nil {
			t.devClose()
		}
		return nil, err
	}
	t.inner = inner
	return t, nil
}

// Put inserts or replaces the record under key. Keys must be non-empty.
//
// Durability: the operation is write-ahead logged but the log is not
// forced, so a crash immediately after Put may lose it — a crash of the
// process as well as of the machine, since the log holds its unforced
// records in memory. It is guaranteed durable once any later FlushLog,
// Checkpoint, Close or transaction Commit succeeds; recovery never applies
// it partially.
func (t *Tree) Put(key, val []byte) error { return t.inner.Put(key, val) }

// Get returns a copy of the value under key, or ErrKeyNotFound.
func (t *Tree) Get(key []byte) ([]byte, error) { return t.inner.Get(key) }

// GetInto appends the value under key to dst and returns the extended slice:
// Get without the allocation when dst has room. On error dst comes back as is.
func (t *Tree) GetInto(dst, key []byte) ([]byte, error) { return t.inner.GetInto(dst, key) }

// Has reports whether key is present.
func (t *Tree) Has(key []byte) (bool, error) { return t.inner.Has(key) }

// Delete removes the record under key, or returns ErrKeyNotFound.
//
// Durability: same contract as Put — logged immediately, durable at the
// next successful FlushLog, Checkpoint, Close or Commit.
func (t *Tree) Delete(key []byte) error { return t.inner.Delete(key) }

// Scan calls fn for each record in [start, end) in key order; fn returning
// false stops the scan. start nil/empty scans from the smallest key; end
// nil scans to the largest. No latches are held across fn calls: the scan
// copies a leaf's in-range records under one shared latch, releases it, and
// calls fn on the copies, so fn may call back into the tree. What a scan
// observes is a snapshot per leaf: a write to the leaf being delivered is
// not reflected, a write to a leaf not yet read is. Keys arrive in strictly
// ascending order, and a record present for the whole scan exactly once.
func (t *Tree) Scan(start, end []byte, fn func(key, val []byte) bool) error {
	return t.inner.Scan(start, end, fn)
}

// ScanReverse calls fn for each record in [start, end) in descending key
// order; fn returning false stops the scan. No latches are held across fn
// calls: the scan copies a leaf's in-range records under one shared latch,
// releases it, and calls fn on the copies, so fn may call back into the tree.
// What a reverse scan observes is a snapshot per leaf, as for Scan: a write
// to the leaf being delivered is not reflected, a write to a leaf not yet
// read is. Keys arrive in strictly descending order, and a record present
// for the whole scan exactly once. Backward iteration cannot ride side
// pointers, so each leaf read costs one descent from the root.
func (t *Tree) ScanReverse(start, end []byte, fn func(key, val []byte) bool) error {
	return t.inner.ScanReverse(start, end, fn)
}

// Min returns the smallest record, or ErrKeyNotFound on an empty tree.
func (t *Tree) Min() (key, val []byte, err error) { return t.inner.Min() }

// Max returns the largest record, or ErrKeyNotFound on an empty tree.
func (t *Tree) Max() (key, val []byte, err error) { return t.inner.Max() }

// ScanPrefix calls fn for each record whose key begins with prefix, in
// ascending key order.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key, val []byte) bool) error {
	return t.inner.Scan(prefix, prefixSuccessor(prefix), fn)
}

// prefixSuccessor returns the smallest key greater than every key with the
// given prefix, or nil (+inf) when no such key exists (all-0xFF prefix).
func prefixSuccessor(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// Count returns the number of records in [start, end).
func (t *Tree) Count(start, end []byte) (int, error) { return t.inner.Count(start, end) }

// BulkLoad populates an empty tree from strictly ascending (key, value)
// pairs, building it bottom-up at the given fill factor (0 < fill <= 1;
// 0 defaults to 0.85). Much faster than repeated Put: for every level, the
// calling goroutine cuts it into chunks of nodes and one builder goroutine
// per GOMAXPROCS turns them into pages (with Workers: -1, the calling
// goroutine builds them itself). Returns an error on a non-empty tree or unsorted
// input. With a durable tree the whole load is one atomic,
// crash-recoverable action: it is logged as a sequence of chunk records
// sealed by a commit record, and recovery replays either all of it or none
// of it.
func (t *Tree) BulkLoad(next func() (key, val []byte, ok bool), fill float64) error {
	return t.inner.BulkLoad(next, fill)
}

// Len returns the total number of records.
func (t *Tree) Len() (int, error) { return t.inner.Len() }

// Cursor iterates records in key order without blocking writers between
// fetches. It reads a leaf at a time and serves Next from that copy, with the
// per-leaf snapshot semantics described on Tree.Scan. A Cursor is not safe
// for concurrent use.
type Cursor struct{ inner *core.Cursor }

// NewCursor returns a cursor over [start, end); end nil means +inf.
func (t *Tree) NewCursor(start, end []byte) *Cursor {
	return &Cursor{inner: t.inner.NewCursor(start, end)}
}

// Next returns the next record, or ok=false at the end of the range. Key
// and value are the caller's to keep. Only the call that finds the current
// leaf's records used up touches the tree.
func (c *Cursor) Next() (key, val []byte, ok bool, err error) { return c.inner.Next() }

// Seek repositions the cursor so the next Next returns the first record
// with key >= target, read afresh from the tree.
func (c *Cursor) Seek(target []byte) { c.inner.Seek(target) }

// Begin starts a transaction with strict two-phase record locking and
// crash-recoverable rollback.
func (t *Tree) Begin() (*Txn, error) {
	x, err := t.inner.Begin()
	if err != nil {
		return nil, err
	}
	return &Txn{inner: x}, nil
}

// Maintain synchronously runs all pending lazy structure modifications
// (index-term postings, consolidations). Useful with Workers: -1 and before
// measuring space utilization. It returns the error that stopped
// maintenance, if one did: a structure modification whose log record could
// not be written is abandoned, and no further one runs.
func (t *Tree) Maintain() error { return t.inner.DrainTodo() }

// Checkpoint flushes all dirty pages and writes a checkpoint record,
// bounding recovery time: the next open reads and redoes the log from that
// record on, not from its start — unless a transaction was open across the
// checkpoint, whose undo needs earlier records; the open then starts at the
// last checkpoint taken without one. No-op for volatile trees.
//
// Durability: a successful Checkpoint guarantees every operation that
// completed before the call survives any later crash.
func (t *Tree) Checkpoint() error { return t.inner.Checkpoint() }

// FlushLog forces every write-ahead log record appended so far to stable
// storage without taking a checkpoint. Cheaper than Checkpoint (no page
// flush); a successful return guarantees every completed operation survives
// any later crash, at the cost of a longer redo at the next open. Under
// DurabilityPeriodic and DurabilityAsync this is the explicit durability
// barrier: it makes every previously acknowledged commit durable,
// regardless of the background log-writer's progress. No-op for volatile
// trees.
func (t *Tree) FlushLog() error { return t.inner.FlushLog() }

// Verify checks the tree's structural invariants. The tree must be
// quiescent (no concurrent operations).
func (t *Tree) Verify() error {
	if err := t.inner.DrainTodo(); err != nil {
		return err
	}
	return t.inner.Verify()
}

// DeepReport is the audit summary returned by VerifyDeep: per-level node
// counts, record totals, live-versus-reachable page accounting, delete-state
// placement, and the durable log's LSN range and torn-tail observation.
type DeepReport = core.DeepReport

// VerifyDeep runs Verify plus the deep audits behind blinkcheck -deep: a
// whole-store page scan (every allocated page must checksum-verify, name
// itself and be reachable — an unreachable page is a leak), a delete-state
// placement audit (nonzero D_D only on level-1 nodes, paper §4), and WAL
// tail sanity (dense LSNs from 1; torn tails reported, not failed). The
// tree must be quiescent; pending maintenance is drained first.
func (t *Tree) VerifyDeep() (*DeepReport, error) {
	if err := t.inner.DrainTodo(); err != nil {
		return nil, err
	}
	return t.inner.VerifyDeep()
}

// RecoveryStats reports what crash recovery found and did when the tree was
// opened: records scanned, redo/undo work, torn pages detected and whether
// the bounded redo had to restart from the head of the log. Recovered is
// false when the tree started fresh or without a log.
type RecoveryStats = core.RecoveryStats

// RecoveryStats returns the recovery statistics recorded at Open; the
// zero value for volatile or freshly created trees.
func (t *Tree) RecoveryStats() RecoveryStats { return t.inner.RecoveryStats() }

// Stats returns a snapshot of internal activity counters.
func (t *Tree) Stats() Stats { return Stats(t.inner.Stats()) }

// Snapshot returns the tree's full metrics in one consistent read. The
// histogram section (Metrics.Obs) is nil unless Options.Observability
// enabled metrics.
func (t *Tree) Snapshot() Metrics { return t.inner.Snapshot() }

// TraceEvents returns the buffered trace events, oldest first; nil unless
// Options.Observability enabled tracing. The ring is bounded and drops the
// oldest events under pressure (Snapshot reports how many).
func (t *Tree) TraceEvents() []TraceEvent { return t.inner.TraceEvents() }

// Spans returns the sampled operation spans, oldest first; nil unless
// Options.Observability enabled span sampling (Observability.Spans). The
// ring is bounded (Observability.SpanCapacity) and drops the oldest spans.
func (t *Tree) Spans() []OpTrace { return t.inner.Spans() }

// SlowSpans returns the slow-op flight recorder's contents, oldest first:
// the spans of operations whose latency met Observability.SlowOpThreshold
// (or the adaptive p999 default), including stage-less stubs for slow
// operations the sampler did not select. Nil unless span sampling is on.
func (t *Tree) SlowSpans() []OpTrace { return t.inner.SlowSpans() }

// LatchStats returns this tree's latch acquisition/wait counters.
func (t *Tree) LatchStats() LatchStats { return t.inner.LatchStats() }

// LatchStats mirrors the per-tree latch counters.
type LatchStats = latch.Stats

// Height returns the root level; a single-leaf tree has height 0.
func (t *Tree) Height() int { return int(t.inner.Height()) }

// Pages returns the number of live pages in the underlying store, the
// space-utilization measure the node-deletion machinery exists to keep low.
func (t *Tree) Pages() int { return t.inner.StoreStats().LivePages }

// Close flushes state, stops maintenance workers and releases resources.
//
// Durability: a successful Close makes every completed operation durable
// (pages flushed, store synced, log forced) and ends the log with a
// checkpoint: reopening the same Path reads that one record and redoes
// nothing. With a transaction still open the checkpoint record is written
// but the next open does not start at it (see Checkpoint).
func (t *Tree) Close() error {
	err := t.inner.Close()
	if t.devClose != nil {
		if cerr := t.devClose(); err == nil {
			err = cerr
		}
	}
	return err
}

// Txn is a transaction: reads and writes acquire record locks held to
// commit (strict 2PL); Abort rolls every change back.
type Txn struct{ inner *core.Txn }

// ID returns the transaction identifier.
func (x *Txn) ID() uint64 { return x.inner.ID() }

// Get reads key under a shared record lock.
func (x *Txn) Get(key []byte) ([]byte, error) { return x.inner.Get(key) }

// Put writes key under an exclusive record lock.
func (x *Txn) Put(key, val []byte) error { return x.inner.Put(key, val) }

// Delete removes key under an exclusive record lock.
func (x *Txn) Delete(key []byte) error { return x.inner.Delete(key) }

// Savepoint marks the current point in the transaction for RollbackTo.
func (x *Txn) Savepoint() int { return x.inner.Savepoint() }

// RollbackTo undoes every operation performed after the savepoint, leaving
// the transaction active. Locks taken since are retained (strict 2PL).
func (x *Txn) RollbackTo(savepoint int) error { return x.inner.RollbackTo(savepoint) }

// Commit makes the transaction durable and releases its locks.
//
// Durability: the acknowledgement point depends on Options.Durability.
// Under DurabilitySync (the default) a successful return means the
// transaction's writes — and every operation completed before it — survive
// any later crash: Commit returns after a log force covering its record,
// run on this goroutine unless one is in flight, in which case it shares
// the next with every commit that arrived meanwhile. Under
// DurabilityPeriodic and
// DurabilityAsync Commit returns as soon as the commit record is appended;
// a crash before the next force loses the commit, and FlushLog is the
// explicit barrier that closes the window. In every mode recovery rolls
// back transactions that never committed.
func (x *Txn) Commit() error { return x.inner.Commit() }

// Abort rolls the transaction back and releases its locks.
func (x *Txn) Abort() error { return x.inner.Abort() }

// Stats mirrors the tree's internal activity counters; see the field
// comments on the internal definition for the paper sections each counter
// measures.
type Stats core.Stats
