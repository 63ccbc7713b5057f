package core

import (
	"fmt"

	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
)

// pathEntry remembers one node the traversal descended through. The
// remembered path optimizes index-term posting (the parent hint) and the
// re-latch procedure (§2.4); dd snapshots the parent-of-leaf delete state
// D_D at visit time (§4.1.2: "we remember the prior value for D_D when we
// visit the node on the way to a leaf node").
type pathEntry struct {
	ref
	level uint8
	dd    uint64
}

// pathBuf is the storage a caller lends a traversal for its remembered path:
// declared as a local and passed as buf[:0], it keeps the path on the
// caller's stack for any tree of up to len(pathBuf) index levels (deeper
// trees spill to the heap through append). The returned path aliases it, so
// whoever keeps a path beyond the call copies it; actions on the to-do queue
// copy the entries they need when they are built.
type pathBuf [8]pathEntry

// traverseOpts parameterizes a traversal (Appendix A.1).
type traverseOpts struct {
	key []byte
	// below selects the search bound. Unset, the target is the node covering
	// key; set, it is the node holding the largest keys strictly below key,
	// nil key meaning +inf (the rightmost node) — how a reverse cursor
	// positions. The bound changes only whether a key space beginning at a
	// given key is reached (reaches); child choice and side moves follow.
	below  bool
	level  uint8      // requested level; 0 for leaves
	intent latch.Mode // latch mode at the target level: Shared or Update
	// promote upgrades the target's Update latch to Exclusive before
	// returning, per A.1 ("promoted to exclusive before exiting traverse").
	promote bool
	// dx is the remembered D_X, read before accessing the tree (§4.2.1a);
	// enqueued actions carry it.
	dx uint64
	// sp is the sampled operation's span (nil when unsampled): traversal
	// phases, latch waits and buffer fetches are attributed to it.
	sp *obs.Span
}

const maxTraverseRestarts = 10000

// reaches reports whether the target lies in a key space beginning at sep:
// sep <= key for the covering node, sep < key (or key +inf) below it.
func (o *traverseOpts) reaches(t *Tree, sep []byte) bool {
	if o.below {
		return o.key == nil || t.compare(sep, o.key) < 0
	}
	return t.compare(sep, o.key) <= 0
}

// childIn returns the position of the child to descend into in index node
// s (key i is child i's low fence, key 0 the node's): the last child whose
// key space the target reaches, or -1 when the target lies below the node's
// low fence.
func (o *traverseOpts) childIn(t *Tree, s *state) int {
	if o.below && o.key == nil {
		return s.Recs.Len() - 1
	}
	i, found := t.search(&s.Recs, o.key)
	if found && !o.below {
		return i
	}
	return i - 1
}

// pastHigh reports whether the target lies beyond a node whose high fence is
// high (nil = +inf), so the descent moves right.
func (o *traverseOpts) pastHigh(t *Tree, high []byte) bool {
	return high != nil && o.reaches(t, high)
}

// traverse descends from the root to the node at o.level covering o.key (or,
// with o.below, holding the largest keys below it), returning it latched (and pinned) together with the remembered path from
// the root (topmost first). Latch coupling is used downward and rightward
// unless the tree was built with NoDeleteSupport, in which case a single
// latch is held at a time (§3.1.1: coupling is only required because nodes
// can be deleted). The path is built in buf (see pathBuf; nil allocates).
func (t *Tree) traverse(o traverseOpts, buf []pathEntry) (*node, []pathEntry, error) {
	// The traversal phase charges the span its wall time minus the nested
	// fetch/latch stages, so routing work is attributed separately from
	// waiting.
	o.sp.EnterPhase(obs.StageTraverse)
	defer o.sp.ExitPhase()
	couple := !t.opts.NoDeleteSupport
restart:
	for attempt := 0; attempt < maxTraverseRestarts; attempt++ {
		a := t.anchor.Load()
		if a.level < o.level {
			return nil, nil, fmt.Errorf("blinktree: requested level %d above root level %d", o.level, a.level)
		}
		mode := t.modeFor(a.level, o.level, o.intent)
		// The anchor is read before the latch is taken, and a root shrunk
		// away in between may have its page reused: only the record's own
		// incarnation is on the level the mode was chosen for and leftmost
		// on it (a former root that has since split still reaches
		// everything from there). Otherwise retry from the new anchor.
		n, ok := t.fetchSame(ref{id: a.id, epoch: a.node.c().Epoch}, mode, o.sp)
		if !ok {
			t.c.restarts.Add(1)
			continue restart
		}
		path := buf[:0]
		for {
			// Side traversals: the target lies beyond this node's key
			// space, so follow the side pointer. Reaching a node only via its
			// side pointer means its index term is missing: re-discover
			// the posting (§2.3).
			for o.pastHigh(t, n.c().High) {
				if n.c().Right == 0 {
					t.unlatchUnpin(n, mode, false)
					return nil, nil, fmt.Errorf("blinktree: node %d high fence without sibling", n.id)
				}
				t.enqueueSidePost(n.id, n.c(), path, o.dx)
				if n, ok = t.sideStep(n, mode, couple, o.sp); !ok {
					t.c.restarts.Add(1)
					continue restart
				}
			}
			if n.level() == o.level {
				if o.promote && mode == latch.Update {
					pt0 := o.sp.Now()
					n.latch.Promote()
					o.sp.StageSince(obs.StageLatchX, n.level(), pt0)
				}
				return n, path, nil
			}
			// Descend, through the state of the node held Shared. The
			// child cannot be deleted between reading its address and
			// latching it: its deleter would need this node exclusively
			// latched to remove the index term (latch coupling argument,
			// §3.1.1).
			var child page.PageID
			if child, path = t.descend(n.id, n.c(), &o, path); child == 0 {
				t.unlatchUnpin(n, mode, false)
				return nil, nil, fmt.Errorf("blinktree: key %q below node %d low fence", o.key, n.id)
			}
			childMode := t.modeFor(n.level()-1, o.level, o.intent)
			if n, ok = t.step(n, mode, child, childMode, couple, o.sp); !ok {
				t.c.restarts.Add(1)
				continue restart
			}
			mode = childMode
		}
	}
	t.traverseExhausted()
	return nil, nil, fmt.Errorf("blinktree: traversal live-locked after %d restarts", maxTraverseRestarts)
}

// step latches the live node next in mode nm (coupled when couple) and
// releases n, which the caller holds in mode m. On false nothing is held.
func (t *Tree) step(n *node, m latch.Mode, next page.PageID, nm latch.Mode, couple bool, sp *obs.Span) (*node, bool) {
	if !couple {
		t.unlatchUnpin(n, m, false)
		return t.fetchLive(next, nm, sp)
	}
	q, ok := t.fetchLive(next, nm, sp)
	t.unlatchUnpin(n, m, false)
	return q, ok
}

// sideStep is the step to n's right sibling, in n's mode, counted as a side
// traversal.
func (t *Tree) sideStep(n *node, mode latch.Mode, couple bool, sp *obs.Span) (*node, bool) {
	n, ok := t.step(n, mode, n.c().Right, mode, couple, sp)
	if ok {
		t.c.sideTraversals.Add(1)
	}
	return n, ok
}

// modeFor selects the latch mode for a node at nodeLevel during a traversal
// to reqLevel: Shared above the target, the caller's intent at the target
// (A.1: higher nodes are latched in share mode).
func (t *Tree) modeFor(nodeLevel, reqLevel uint8, intent latch.Mode) latch.Mode {
	if nodeLevel > reqLevel {
		return latch.Shared
	}
	return intent
}

// enqueueSidePost re-discovers a missing index term on a side move from
// node id in state s: its side link — the sibling's address and key space
// from s's high fence, the Pi-tree property — is the complete index term to
// post. An optimistic descent passes the snapshot it read: a stale one
// enqueues a posting that the D_D/D_X verification in processPost abandons,
// the same safety argument as every other lazy action.
func (t *Tree) enqueueSidePost(id page.PageID, s *state, path []pathEntry, dx uint64) {
	if s.Right == 0 || t.todo.postPending(id, s.Right) {
		return // nothing to post, or already re-discovered
	}
	var parent ref
	var dd uint64
	if len(path) > 0 {
		top := path[len(path)-1]
		parent = top.ref
		dd = top.dd
	}
	// The sibling has not been latched: whether it still exists when the
	// post runs is verified through D_D/D_X, or, with no parent remembered,
	// by looking at it then (newNodeStands).
	t.c.postsEnqueued.Add(1)
	t.todo.enqueue(action{
		kind:   actPost,
		level:  s.Level,
		origID: id, origEpoch: s.Epoch,
		newID:  s.Right,
		sep:    append([]byte(nil), s.High...),
		parent: parent,
		dx:     dx,
		dd:     dd,
	})
}

// descend is one downward step of either descent through index node id,
// read as its state s: the child covering o's target (0 when the target
// lies below s's key space), with the node remembered on path and checked
// for consolidation. The latched descent passes the state of the node it
// holds Shared, which no one changes meanwhile.
func (t *Tree) descend(id page.PageID, s *state, o *traverseOpts, path []pathEntry) (page.PageID, []pathEntry) {
	ci := o.childIn(t, s)
	if ci < 0 {
		return 0, path
	}
	path = append(path, pathEntry{ref: ref{id: id, epoch: s.Epoch}, level: s.Level, dd: s.DD})
	t.maybeEnqueueDelete(id, s, path, o.dx)
	return s.Recs.Child(ci), path
}

// maybeEnqueueDelete enqueues a consolidation for an under-utilized index
// node id seen during a descent as state s (A.1 step 5); path already ends
// with the node. The root is never consolidated, but a single-child index
// root triggers a shrink.
func (t *Tree) maybeEnqueueDelete(id page.PageID, s *state, path []pathEntry, dx uint64) {
	if t.opts.NoDeleteSupport {
		return
	}
	// Never read the anchor here: a latched descent holds the node's latch,
	// and the shrink SMO holds the anchor while waiting for a node latch.
	// Whether the node really is the root is re-verified by processShrink
	// under the anchor.
	if len(path) <= 1 {
		if s.Recs.Len() == 1 && s.Right == 0 {
			t.todo.enqueue(action{kind: actShrink, origID: id, origEpoch: s.Epoch, level: s.Level})
		}
		return
	}
	if t.underutilized(s) {
		t.enqueueDelete(s.Level, ref{id: id, epoch: s.Epoch}, s.Low, path[len(path)-2].ref, dx)
	}
}

// maybeEnqueueLeafDelete is the leaf-level under-utilization check done by
// read node / update node (§3.1.2–3.1.3) after an operation.
func (t *Tree) maybeEnqueueLeafDelete(leaf *node, path []pathEntry, dx uint64) {
	if !t.opts.NoDeleteSupport && len(path) > 0 && t.underutilized(leaf.c()) {
		t.enqueueDelete(leaf.level(), ref{id: leaf.id, epoch: leaf.c().Epoch}, leaf.c().Low, path[len(path)-1].ref, dx)
	}
}

// enqueueDelete enqueues the consolidation of node orig, at level with low
// fence low, under parent (zero: resolved when the action runs).
func (t *Tree) enqueueDelete(level uint8, orig ref, low []byte, parent ref, dx uint64) {
	t.c.deletesEnqueued.Add(1)
	t.todo.enqueue(action{
		kind:   actDelete,
		level:  level,
		origID: orig.id, origEpoch: orig.epoch,
		sep:    append([]byte(nil), low...),
		parent: parent,
		dx:     dx,
	})
}
