package core

import (
	"sync/atomic"

	"blinktree/internal/obs"
)

// Stats is a snapshot of tree activity counters. The experiment harness
// reads these to report the quantities the paper argues about: side
// traversals (lazy posting cost), SMO aborts from delete-state changes
// (robustness mechanism firing), leaf vs index delete counts (the ">99% are
// data node deletes" claim), and re-latch traffic (§2.4).
type Stats struct {
	// Operations.
	Searches uint64
	Inserts  uint64
	Updates  uint64
	Deletes  uint64
	Scans    uint64 // records delivered by cursors and scans

	// Traversal behaviour.
	SideTraversals    uint64 // rightward moves during traversal
	Restarts          uint64 // traversals restarted from the root
	TraverseExhausted uint64 // traversals that hit the restart budget (live-lock)

	// Optimistic read path (latch-free descent, see optread.go).
	OptReadAttempts  uint64 // optimistic descents started
	OptReadRestarts  uint64 // attempts invalidated (version/fence/dead check)
	OptReadFallbacks uint64 // reads that fell back to the latched traversal

	// Splits and postings.
	Splits         uint64 // first half splits performed inline
	PostsEnqueued  uint64
	PostsDone      uint64 // index terms actually posted
	PostsDuplicate uint64 // posting found the term already present
	PostsAbortDX   uint64 // aborted: D_X changed
	PostsAbortDD   uint64 // aborted: D_D changed
	PostsAbortID   uint64 // aborted: parent identity (epoch) changed
	PostsRequeued  uint64 // root-grow race: action deferred

	// Node deletes.
	DeletesEnqueued   uint64
	LeafConsolidated  uint64 // data nodes consolidated
	IndexConsolidated uint64 // index nodes consolidated
	DeleteAbortDX     uint64 // aborted: D_X changed
	DeleteAbortID     uint64 // aborted: parent identity changed
	DeleteAbortEdge   uint64 // aborted: leftmost child / sibling mismatch
	DeleteSkipFit     uint64 // skipped: refilled or does not fit in sibling

	// Root SMOs.
	Grows   uint64
	Shrinks uint64

	// Delete state traffic.
	DXIncrements uint64
	DDIncrements uint64

	// Lock/latch interaction (§2.4).
	NoWaitDenied  uint64 // record lock no-wait requests that were refused
	Relatches     uint64 // re-latch procedure invocations
	RelatchFast   uint64 // re-latch took the D_D fast path to the leaf
	TxnAbortsDX   uint64 // transactions aborted because D_X changed
	TxnDeadlocks  uint64 // transactions aborted as deadlock victims
	TxnCommits    uint64
	TxnAborts     uint64
	ReclaimRetry  uint64 // page reclaim retried due to concurrent pin
	TodoProcessed uint64

	// Maintenance scheduler.
	TodoDedupHits      uint64 // enqueues/probes collapsed onto a pending duplicate
	TodoQueueHighWater uint64 // maximum queued actions observed
	DrainBailouts      uint64 // DrainTodo gave up on a non-shrinking queue

	// Deprecated: TodoInlineAssists is always zero: scheduler backpressure,
	// which it counted, has been removed (DESIGN.md §4b). The field exists
	// only because benchmark/layers.go, frozen for non-benchmark changes,
	// still reads it; a benchmark-only change drops that metric, and then
	// this field goes.
	TodoInlineAssists uint64

	// Right-edge append fast path (appendfast.go).
	AppendFastHits   uint64 // inserts served by the cached rightmost leaf
	AppendFastMisses uint64 // fast-path attempts that fell back to traversal

	// Bulk load (bulkload.go).
	BulkLoadPages  uint64 // pages built by bulk loads (leaves + index nodes)
	BulkLoadChunks uint64 // chunks dispatched/logged by bulk loads

	// Logging: page after-images logged because a change was its page's
	// first since the last checkpoint (a record op's, or a D_D bump's).
	FirstChangeImages uint64
}

// counters backs Stats; the two every read bumps are striped by stack hint.
type counters struct {
	searches, optAttempts                            obs.Striped
	inserts, updates, deletes, scans                 atomic.Uint64
	sideTraversals, restarts, traverseExhausted      atomic.Uint64
	optRestarts, optFallbacks                        atomic.Uint64
	splits, postsEnqueued, postsDone, postsDuplicate atomic.Uint64
	postsAbortDX, postsAbortDD, postsAbortID         atomic.Uint64
	postsRequeued                                    atomic.Uint64
	deletesEnqueued, leafConsolidated                atomic.Uint64
	indexConsolidated, deleteAbortDX, deleteAbortID  atomic.Uint64
	deleteAbortEdge, deleteSkipFit                   atomic.Uint64
	grows, shrinks                                   atomic.Uint64
	dxIncrements, ddIncrements                       atomic.Uint64
	noWaitDenied, relatches, relatchFast             atomic.Uint64
	txnAbortsDX, txnDeadlocks, txnCommits, txnAborts atomic.Uint64
	reclaimRetry, todoProcessed                      atomic.Uint64
	todoDedupHits, drainBailouts                     atomic.Uint64
	appendFastHits, appendFastMisses                 atomic.Uint64
	bulkLoadPages, bulkLoadChunks                    atomic.Uint64
	firstChangeImages                                atomic.Uint64
}

// snapshot copies the counters into a Stats value.
func (c *counters) snapshot() Stats {
	return Stats{
		Searches:          c.searches.Load(),
		Inserts:           c.inserts.Load(),
		Updates:           c.updates.Load(),
		Deletes:           c.deletes.Load(),
		Scans:             c.scans.Load(),
		SideTraversals:    c.sideTraversals.Load(),
		Restarts:          c.restarts.Load(),
		TraverseExhausted: c.traverseExhausted.Load(),
		OptReadAttempts:   c.optAttempts.Load(),
		OptReadRestarts:   c.optRestarts.Load(),
		OptReadFallbacks:  c.optFallbacks.Load(),
		Splits:            c.splits.Load(),
		PostsEnqueued:     c.postsEnqueued.Load(),
		PostsDone:         c.postsDone.Load(),
		PostsDuplicate:    c.postsDuplicate.Load(),
		PostsAbortDX:      c.postsAbortDX.Load(),
		PostsAbortDD:      c.postsAbortDD.Load(),
		PostsAbortID:      c.postsAbortID.Load(),
		PostsRequeued:     c.postsRequeued.Load(),
		DeletesEnqueued:   c.deletesEnqueued.Load(),
		LeafConsolidated:  c.leafConsolidated.Load(),
		IndexConsolidated: c.indexConsolidated.Load(),
		DeleteAbortDX:     c.deleteAbortDX.Load(),
		DeleteAbortID:     c.deleteAbortID.Load(),
		DeleteAbortEdge:   c.deleteAbortEdge.Load(),
		DeleteSkipFit:     c.deleteSkipFit.Load(),
		Grows:             c.grows.Load(),
		Shrinks:           c.shrinks.Load(),
		DXIncrements:      c.dxIncrements.Load(),
		DDIncrements:      c.ddIncrements.Load(),
		NoWaitDenied:      c.noWaitDenied.Load(),
		Relatches:         c.relatches.Load(),
		RelatchFast:       c.relatchFast.Load(),
		TxnAbortsDX:       c.txnAbortsDX.Load(),
		TxnDeadlocks:      c.txnDeadlocks.Load(),
		TxnCommits:        c.txnCommits.Load(),
		TxnAborts:         c.txnAborts.Load(),
		ReclaimRetry:      c.reclaimRetry.Load(),
		TodoProcessed:     c.todoProcessed.Load(),
		TodoDedupHits:     c.todoDedupHits.Load(),
		DrainBailouts:     c.drainBailouts.Load(),
		AppendFastHits:    c.appendFastHits.Load(),
		AppendFastMisses:  c.appendFastMisses.Load(),
		BulkLoadPages:     c.bulkLoadPages.Load(),
		BulkLoadChunks:    c.bulkLoadChunks.Load(),
		FirstChangeImages: c.firstChangeImages.Load(),
	}
}
