package core

import (
	"time"

	"blinktree/internal/obs"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// DeletePolicy selects how node deletion is performed; the non-default
// policies are the paper's comparators.
type DeletePolicy uint8

const (
	// DeleteState is the paper's contribution: any under-utilized node may
	// be consolidated; D_X/D_D guard the lazy structure modifications.
	DeleteState DeletePolicy = iota
	// Drain is the "drain approach" (§1.3, [16,19]): a node is deleted
	// only once empty, its page is marked empty with an extra logged
	// update before deletion, and the page "lives" until outstanding
	// references have drained (modeled by an operation-count grace
	// period). Simple, but under skewed deletes it leaves under-utilized
	// pages for long periods — exactly what experiment E2 measures.
	Drain
)

// FeatureMode is the type of the deprecated Options.Combining: a tri-state
// switch whose zero value lets the tree choose. No engine feature reads it.
type FeatureMode uint8

// The three FeatureMode values; Options.Combining ignores all of them.
const (
	FeatureDefault FeatureMode = iota
	FeatureOn
	FeatureOff
)

// Compare orders keys like bytes.Compare: negative when a < b, zero when
// equal, positive when a > b. A custom comparator must order the empty key
// below every non-empty key (it is the tree's -infinity sentinel), and two
// keys comparing equal are the same record.
type Compare func(a, b []byte) int

// Options configures a Tree.
type Options struct {
	// PageSize is the node size in bytes. Default 4096.
	PageSize int

	// Compare orders keys; nil means bytewise (bytes.Compare). With a
	// custom comparator, separator truncation is disabled (truncation
	// assumes bytewise prefix ordering). This is the paper's §2.1
	// "general indexing framework" hook: the tree's concurrency and
	// recovery machinery is independent of the key interpretation.
	Compare Compare

	// CacheSize is the buffer pool capacity in nodes. Default 4096. Latch/pin
	// coupling holds at most three frames per operation (parent, node,
	// sibling), so the minimum is 3 × (concurrent callers + Workers); below
	// that an operation can find every frame pinned, in which case it waits
	// for an unpin for up to a second and then fails with
	// buffer.ErrPoolFull.
	CacheSize int

	// MinFill is the under-utilization threshold as a fraction of PageSize:
	// a node whose serialized size falls below MinFill*PageSize is enqueued
	// for consolidation (the paper: "we can set any utilization lower bound
	// that we wish", §2.3). Default 0.30. Zero disables consolidation
	// entirely without disabling delete-state support.
	MinFill float64

	// Workers is the number of to-do queue worker goroutines processing
	// lazy structure modifications. Zero means the default, 2. WorkersNone
	// means none, and the tree then starts neither maintenance nor
	// bulk-load goroutines: the caller drives the queue with DrainTodo
	// (deterministic tests and the crash harness do this), and BulkLoad
	// builds every chunk on the calling goroutine.
	Workers int

	// Store supplies the page store. Nil means a fresh in-memory store.
	Store storage.Store

	// LogDevice enables write-ahead logging and crash recovery when
	// non-nil. Nil disables logging: the tree is volatile.
	LogDevice wal.Device

	// Durability selects when Txn.Commit is acknowledged relative to the
	// log force that makes it durable. DurSync (the default) acknowledges
	// only after a force covering the commit LSN: the committing
	// goroutine's own, or the next one when a force is already in flight,
	// shared with every commit that arrived meanwhile. DurPeriodic and
	// DurAsync acknowledge immediately and force in the background; a
	// crash loses at most the commits inside the unforced window, and a
	// successful FlushLog/Checkpoint/Close re-establishes full durability.
	// Recovery is identical in every mode. No effect without a LogDevice.
	Durability wal.DurabilityMode

	// FlushInterval is DurPeriodic's background force period (0 means the
	// default, 2ms). Negative disables all autonomous forcing in the
	// periodic and async modes — commits are then durable only at explicit
	// FlushLog/Checkpoint/Close points; the crash harness uses this to
	// keep its persistence-operation stream deterministic.
	FlushInterval time.Duration

	// FlushBytes is DurPeriodic's unforced-byte threshold (0 means the
	// default, 256 KiB): once more than this many appended log bytes await
	// a force, the log-writer forces without waiting for FlushInterval.
	FlushBytes int64

	// DeletePolicy selects the node-deletion comparator. Default
	// DeleteState (the paper's method).
	DeletePolicy DeletePolicy

	// SerializeSMO builds the ARIES/IM-style comparator (§1.2, [15]):
	// every structure modification — split, index-term posting, node
	// consolidation — runs under one global tree latch, one at a time,
	// and postings are eager (the triggering operation completes the full
	// multi-level SMO before returning). Node deletes additionally require
	// empty pages, as in [15]. Experiment E1 measures the concurrency this
	// costs.
	SerializeSMO bool

	// NoDeleteSupport builds the Lomet–Salzberg "variant 1" comparator: a
	// B-link tree with node deletion disabled. Consolidation is never
	// enqueued, delete states are neither read nor checked, and downward
	// traversal holds a single latch at a time instead of latch coupling
	// (the paper: "Latch coupling isn't required if node deletes cannot
	// occur", §3.1.1). Used by the overhead experiment (E10).
	NoDeleteSupport bool

	// SingleDeleteState is an ablation switch (E8): instead of the paper's
	// split D_X / per-parent D_D scheme, every node delete (leaf or index)
	// increments the one global counter, and index-term postings verify
	// against it. This mimics a naive "one delete counter" design and
	// should abort far more postings under leaf-delete load.
	SingleDeleteState bool

	// Deprecated: Combining selected hot-leaf operation combining, which
	// has been removed (EXPERIMENTS.md E14); every value is accepted and
	// ignored. The field exists only because benchmark/workload.go, frozen
	// for non-benchmark changes, still sets it: a benchmark-only change
	// removes that setter, and then this field goes.
	Combining FeatureMode

	// BulkChunkPages is the number of leaves grouped into one bulk-load
	// chunk — the unit of page-ID leasing, of WAL logging (one SMOBulkChunk
	// record per chunk) and of hand-off to a builder goroutine. Zero means
	// the default (64); the value is clamped down so the in-flight chunks
	// always fit inside the buffer pool. The crash harnesses set it low for
	// crash-point granularity; it is not exported by package blinktree.
	BulkChunkPages int

	// Observability enables per-operation latency histograms and/or the
	// SMO lifecycle trace ring (see obs.Config). Nil disables both: the
	// instrumentation collapses to a nil-pointer check on the hot paths.
	Observability *obs.Config
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.MinFill == 0 {
		o.MinFill = 0.30
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Store == nil {
		o.Store = storage.NewMemStore(o.PageSize)
	}
	if o.NoDeleteSupport {
		o.MinFill = -1 // never under-utilized
	}
	return o
}

// explicit sentinel: Workers < 0 means "no workers" after defaulting.
// Callers pass WorkersNone to run the queue manually.
const WorkersNone = -1
