package core

import (
	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
)

// Optimistic (latch-free) read path.
//
// A read descends root→leaf taking no latches at all: each index node is
// read through its immutable routing snapshot (node.route, republished on
// every exclusive-latch release) and validated against the latch's version
// word. The protocol per index node is
//
//	v    ← latch.OptVersion()        (fails while an X holder exists)
//	r    ← route snapshot
//	        fence / level / dead checks on r; pick child or side pointer
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

// routeView samples n's version word and routing snapshot for one
// optimistic step. ok is false when an exclusive holder is active or no
// snapshot exists (a leaf, or a node loaded before publication).
func (n *node) routeView() (*route, uint64, bool) {
	v, ok := n.latch.OptVersion()
	if !ok {
		return nil, 0, false
	}
	r := n.route.Load()
	if r == nil {
		return nil, 0, false
	}
	return r, v, true
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
		r, v, ok := n.routeView()
		if !ok || r.dead || r.level != level {
			t.optDrop(a, n)
			return nil, nil, false
		}
		next := r.right
		side := o.pastHigh(t, r.high)
		if side {
			// Side traversal; reaching a node only via its side pointer
			// means its index term is missing (§2.3).
			if next != 0 {
				t.enqueuePostFromRoute(n.id, r, path, o.dx)
			}
		} else if ci := o.childIn(t, r.keys, &r.hs); ci >= 0 {
			next = r.children[ci]
			path = append(path, pathEntry{
				ref:   ref{id: n.id, epoch: r.epoch},
				level: r.level,
				dd:    r.dd,
			})
			t.maybeEnqueueDeleteFromRoute(n.id, r, path, o.dx)
		} else {
			// A target below the node's key space is reachable here, unlike
			// in the latched traversal: the route that sent us was stale.
			next = 0
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
	if n.dead || !n.isLeaf() || !o.reaches(t, n.c.Low) {
		t.unlatchUnpin(n, latch.Shared, false)
		return nil, nil, false
	}
	for o.pastHigh(t, n.c.High) {
		t.enqueuePostFromSideMove(n, path, o.dx)
		var ok bool
		if n, ok = t.sideStep(n, latch.Shared, !t.opts.NoDeleteSupport, o.sp); !ok {
			return nil, nil, false
		}
	}
	return n, path, true
}

// enqueuePostFromRoute is enqueuePostFromSideMove for an optimistic side
// move: the snapshot carries the sibling's address and key space (the
// Pi-tree property), which is the complete index term to post. A stale
// snapshot enqueues a posting that the D_D/D_X verification in processPost
// will abandon — the same safety argument as every other lazy action.
func (t *Tree) enqueuePostFromRoute(id page.PageID, r *route, path []pathEntry, dx uint64) {
	if t.todo.postPending(id, r.right) {
		return
	}
	var parent ref
	var dd uint64
	if len(path) > 0 {
		top := path[len(path)-1]
		parent = top.ref
		dd = top.dd
	}
	a := action{
		kind:   actPost,
		level:  r.level,
		origID: id, origEpoch: r.epoch,
		newID:  r.right,
		sep:    append([]byte(nil), r.high...),
		parent: parent,
		dx:     dx,
		dd:     dd,
	}
	t.c.postsEnqueued.Add(1)
	t.todo.enqueue(a)
}

// maybeEnqueueDeleteFromRoute is maybeEnqueueDelete for an optimistic
// descent, working from the snapshot's size and child count. path already
// includes the node itself (appended just before the call), matching the
// latched traversal's calling convention.
func (t *Tree) maybeEnqueueDeleteFromRoute(id page.PageID, r *route, path []pathEntry, dx uint64) {
	if t.opts.NoDeleteSupport {
		return
	}
	isRoot := len(path) <= 1
	if isRoot {
		if len(r.children) == 1 && r.right == 0 {
			t.todo.enqueue(action{
				kind: actShrink, origID: id, origEpoch: r.epoch, level: r.level,
			})
		}
		return
	}
	if !t.underutilizedRaw(r.size, len(r.keys)) {
		return
	}
	parent := path[len(path)-2]
	t.c.deletesEnqueued.Add(1)
	t.todo.enqueue(action{
		kind:   actDelete,
		level:  r.level,
		origID: id, origEpoch: r.epoch,
		sep:    append([]byte(nil), r.low...),
		parent: parent.ref,
		dx:     dx,
	})
}
