package core

// Right-edge append fast path.
//
// Monotonic key loads (log tails, time-ordered IDs) send every insert to
// the rightmost leaf, yet the normal path still pays a full root-to-leaf
// descent per operation. The tree therefore caches a hint naming the
// rightmost leaf — refreshed whenever a writer mutates a leaf with no high
// fence — and an eligible insert tries that leaf directly:
//
//	hint  ← rightEdge load; give up unless key >= hint.low (cheap filter)
//	pin hint.id
//	v, ok ← latch.OptVersion()      (seqlock pre-check: back off while an
//	                                 exclusive holder is mutating)
//	try-acquire Update; then AUTHORITATIVE checks under the latch: not
//	dead, the hint's incarnation (so a leaf, and key >= its Low), and
//	High == nil (covers every key >= Low) — the update latch excludes
//	writers, so these cannot go stale before the promote
//	fit check (no splits on the fast path), Promote, insert via putOnLeaf
//
// Any failure is a miss: the hint is dropped if it is definitively stale
// (dead node or no longer the right edge) and the insert falls back to the
// normal traversal. A stale hint is therefore harmless — the path is purely
// an optimization and every decision is re-validated under the latch.
//
// The pre-check against the hint's low fence keeps the path free for
// non-monotonic workloads: a uniform-random insert almost always compares
// below the rightmost leaf's low fence and walks away after one pointer
// load, no pin, no latch traffic.

import (
	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// rightEdgeHint names the believed-rightmost leaf by reference. low is the
// leaf's low fence at publish time; a node's low fence never changes in
// place, so the copy stays accurate for the incarnation's lifetime.
type rightEdgeHint struct {
	ref
	low []byte
}

// noteRightEdge refreshes the right-edge cache after a mutation of leaf.
// The caller holds leaf's exclusive latch. Only leaves with no high fence
// are the right edge; re-publishing an unchanged hint is skipped so the
// steady state costs one atomic load and no allocation.
func (t *Tree) noteRightEdge(leaf *node) {
	if t.noAppendFast || leaf.c().High != nil || leaf.c().dead || !leaf.isLeaf() {
		return
	}
	if h := t.rightEdge.Load(); h != nil && h.id == leaf.id && h.epoch == leaf.c().Epoch {
		return
	}
	t.rightEdge.Store(&rightEdgeHint{
		ref: ref{id: leaf.id, epoch: leaf.c().Epoch},
		low: append([]byte(nil), leaf.c().Low...),
	})
}

// appendFastPut tries the right-edge fast path for a non-transactional
// upsert. done=false means the path did not apply (no hint, key not
// append-shaped, or validation failed) and the caller must run the normal
// traversal.
func (t *Tree) appendFastPut(lp recOpParams, key, val []byte) (lsn wal.LSN, updated, done bool, err error) {
	h := t.rightEdge.Load()
	if h == nil || t.compare(key, h.low) < 0 {
		return 0, false, false, nil
	}
	leaf, ferr := t.fetchSpan(h.id, lp.sp)
	if ferr != nil {
		t.rightEdge.CompareAndSwap(h, nil)
		t.c.appendFastMisses.Add(1)
		return 0, false, false, nil
	}
	if _, ok := leaf.latch.OptVersion(); !ok {
		// An exclusive holder is mutating the leaf right now (it may be
		// splitting); don't pile onto its latch from the fast path.
		t.unpin(leaf)
		t.c.appendFastMisses.Add(1)
		return 0, false, false, nil
	}
	if !leaf.latch.TryAcquire(latch.Update) {
		t.unpin(leaf)
		t.c.appendFastMisses.Add(1)
		return 0, false, false, nil
	}
	// Authoritative validation under the update latch. The hint's own
	// incarnation is a leaf whose low fence key passed above.
	if leaf.c().dead || leaf.c().Epoch != h.epoch || leaf.c().High != nil {
		leaf.latch.Release(latch.Update)
		t.unpin(leaf)
		t.rightEdge.CompareAndSwap(h, nil)
		t.c.appendFastMisses.Add(1)
		return 0, false, false, nil
	}
	// Fit check: the fast path never splits (it has no parent hint worth
	// trusting for an SMO); a full leaf falls back to the normal path.
	pos, found := t.search(&leaf.c().Recs, key)
	fits := false
	if found {
		fits = leaf.size()+len(val)-len(leaf.c().Recs.Val(pos)) <= t.opts.PageSize
	} else {
		fits = leaf.size()+page.EntrySize(page.Leaf, len(key), len(val)) <= t.opts.PageSize
	}
	if !fits {
		leaf.latch.Release(latch.Update)
		t.unpin(leaf)
		t.c.appendFastMisses.Add(1)
		return 0, false, false, nil
	}
	pt0 := lp.sp.Now()
	leaf.latch.Promote()
	lp.sp.StageSince(obs.StageLatchX, 0, pt0)
	t.c.appendFastHits.Add(1)
	dx := t.dx.v.Load()
	lsn, updated, err = t.putOnLeaf(leaf, nil, dx, lp, key, val)
	return lsn, updated, true, err
}
