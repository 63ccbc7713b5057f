package core

import (
	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
)

// Optimistic (latch-free) read path.
//
// A read descends root→leaf taking no latches at all: each index node is
// read through its state, a snapshot that each change replaces and nothing
// writes once installed (node.s), and validated against the latch's version
// word. The protocol per index node is
//
//	v    ← latch.OptVersion()        (fails while an X holder exists)
//	s    ← the node's state
//	        level / dead / fence checks on s; pick child or side pointer
//	pin the next node
//	ok   ← latch.Validate(v)         (no X ownership intervened)
//
// Pin-coupling replaces latch-coupling: the parent's pin is held until the
// child is pinned and the parent validated, so the child's page cannot be
// deallocated and reused in the window (reclaim refuses pinned frames, and
// a reloaded page gets a fresh node object). A child that is consolidated
// after validation keeps its dead flag forever on this object, and fences
// only ever tighten rightward — both are re-checked on arrival, exactly the
// recoverable situations Lomet's side pointers and delete states already
// handle for latched readers that run behind an SMO.
//
// The root is the exception: a pin there is a write to one cache line by
// every reader on every core. An index root is read through the anchor
// record's node pointer under the record's standing pin, and its step also
// validates that the record is still the anchor — or the version check means
// nothing: once replaced, the root may be evicted and reloaded, leaving this
// object an orphan nobody latches again (DESIGN.md §4b, "What a cached Get
// writes").
//
// Only the target leaf is latched (Shared), closing the race with in-place
// record updates; leaf-level side steps are latch-coupled as in traverse.
// Any validation failure restarts from the root; after maxOptAttempts
// failures the read falls back to the pessimistic traversal.

// maxOptAttempts bounds optimistic descent attempts before falling back to
// the latched traversal. Restarts are rare (an SMO must hit the read's
// exact path mid-descent), so a small budget loses nothing.
const maxOptAttempts = 3

// unpin drops a pin taken with fetch (no latch involved).
func (t *Tree) unpin(n *node) { n.frame.Unpin(false) }

// traverseRead is the entry point for Shared leaf traversals (Get,
// transactional point reads, forward and reverse cursor positioning):
// optimistic first, latched fallback. Non-read shapes go straight to
// traverse. buf is as for traverse.
func (t *Tree) traverseRead(o traverseOpts, buf []pathEntry) (*node, []pathEntry, error) {
	if !t.latchedReads && o.intent == latch.Shared && o.level == 0 && !o.promote {
		for attempt := 0; attempt < maxOptAttempts; attempt++ {
			t.c.optAttempts.Add(obs.StackHint(), 1)
			o.sp.EnterPhase(obs.StageDescend)
			leaf, path, ok := t.traverseOpt(o, buf)
			o.sp.ExitPhase()
			if ok {
				return leaf, path, nil
			}
			o.sp.Restart()
			t.c.optRestarts.Add(1)
		}
		o.sp.Fallback()
		t.c.optFallbacks.Add(1)
		t.traceOptFallback()
	}
	return t.traverse(o, buf)
}

// optRoot starts an optimistic descent. An index root is borrowed from the
// anchor record, unpinned; a leaf root, about to be latched and handed to the
// caller, gets this descent's own pin.
func (t *Tree) optRoot(sp *obs.Span) (*anchorRec, *node, bool) {
	a := t.anchor.Load()
	if a.level > 0 {
		return a, a.node, true
	}
	n, err := t.fetchSpan(a.id, sp)
	return a, n, err == nil // an error: root shrunk away; retry from new anchor
}

// optDrop gives up n: our pin, unless n is the root borrowed from a.
func (t *Tree) optDrop(a *anchorRec, n *node) {
	if n != a.node {
		t.unpin(n)
	}
}

// optValid reports whether n, read at version v, was current: no X latch
// since, and — for the root borrowed from a — a still the published anchor.
func (t *Tree) optValid(a *anchorRec, n *node, v uint64) bool {
	return n.latch.Validate(v) && (n != a.node || t.anchor.Load() == a)
}

// optStep finishes one optimistic step from n, read at version v, to page
// next: pin next, validate n, give n up. On false nothing is held.
func (t *Tree) optStep(a *anchorRec, n *node, v uint64, next page.PageID, sp *obs.Span) (*node, bool) {
	m, err := t.fetchSpan(next, sp)
	ok := err == nil && t.optValid(a, n, v)
	if err == nil && !ok {
		t.unpin(m)
	}
	t.optDrop(a, n)
	return m, ok
}

// traverseOpt makes one optimistic descent attempt for o. ok=false means a
// validation failed and the caller should retry or fall back; on ok=true the
// target leaf is returned pinned and Shared-latched with the remembered
// path, exactly like traverse.
func (t *Tree) traverseOpt(o traverseOpts, buf []pathEntry) (*node, []pathEntry, bool) {
	a, n, ok := t.optRoot(o.sp)
	if !ok {
		return nil, nil, false
	}
	return t.traverseOptFrom(a, n, o, buf)
}

// traverseOptFrom is the descent after optRoot; a test can stand between them.
func (t *Tree) traverseOptFrom(a *anchorRec, n *node, o traverseOpts, buf []pathEntry) (*node, []pathEntry, bool) {
	path := buf[:0]
	level := a.level
	for level > 0 {
		// The level first: a leaf's state, which its writers edit in
		// place, is read no further.
		v, ok := n.latch.OptVersion()
		s := n.c()
		if !ok || s.Level != level || s.dead {
			t.optDrop(a, n)
			return nil, nil, false
		}
		next := s.Right
		side := o.pastHigh(t, s.High)
		if side {
			// Side traversal; reaching a node only via its side pointer
			// means its index term is missing (§2.3).
			t.enqueueSidePost(n.id, s, path, o.dx)
		} else {
			// A target below the node's key space (next 0) is reachable
			// here, unlike in the latched traversal: the snapshot that
			// sent us was stale.
			next, path = t.descend(n.id, s, &o, path)
		}
		if next == 0 {
			t.optDrop(a, n)
			return nil, nil, false
		}
		if n, ok = t.optStep(a, n, v, next, o.sp); !ok {
			return nil, nil, false
		}
		if side {
			t.c.sideTraversals.Add(1)
		} else {
			level--
		}
	}
	// Target level: the only latch of the whole descent. Everything decided
	// optimistically is re-verified under it.
	lt0 := o.sp.Now()
	n.latch.Acquire(latch.Shared)
	o.sp.StageSince(obs.StageLatchS, 0, lt0)
	if s := n.c(); s.dead || s.Kind != page.Leaf || !o.reaches(t, s.Low) {
		t.unlatchUnpin(n, latch.Shared, false)
		return nil, nil, false
	}
	for o.pastHigh(t, n.c().High) {
		t.enqueueSidePost(n.id, n.c(), path, o.dx)
		var ok bool
		if n, ok = t.sideStep(n, latch.Shared, !t.opts.NoDeleteSupport, o.sp); !ok {
			return nil, nil, false
		}
	}
	return n, path, true
}
