package core

import (
	"fmt"

	"blinktree/internal/latch"
	"blinktree/internal/obs"
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

// childIn returns the position of the child to descend into in an index
// node keyed by keys with heads kh (keys[i] is child i's low fence, keys[0]
// the node's): the last child whose key space the target reaches, or -1 when
// the target lies below the node's low fence.
func (o *traverseOpts) childIn(t *Tree, keys [][]byte, kh *keyHeads) int {
	if o.below && o.key == nil {
		return len(keys) - 1
	}
	i, found := t.search(keys, kh, o.key)
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
		rootID, rootLevel := t.readAnchor()
		if rootLevel < o.level {
			return nil, nil, fmt.Errorf("blinktree: requested level %d above root level %d", o.level, rootLevel)
		}
		mode := t.modeFor(rootLevel, o.level, o.intent)
		n, err := t.pinLatchSpan(rootID, mode, o.sp)
		if err != nil {
			// The root was shrunk away between the anchor read and the
			// fetch; retry from the new anchor.
			t.c.restarts.Add(1)
			continue restart
		}
		// The anchor is read before the latch is taken, and a root that was
		// shrunk away in between has its page reused: the node now under
		// rootID must still be what a root is — alive, on the level the
		// latch mode was chosen for, and leftmost on it (a former root that
		// has since split is, and still reaches everything from there).
		if n.dead || n.level() != rootLevel || len(n.c.Low) != 0 {
			t.unlatchUnpin(n, mode, false)
			t.c.restarts.Add(1)
			continue restart
		}
		path := buf[:0]
		for {
			// Side traversals: the target lies beyond this node's key
			// space, so follow the side pointer. Reaching a node only via its
			// side pointer means its index term is missing: re-discover
			// the posting (§2.3).
			for o.pastHigh(t, n.c.High) {
				if n.c.Right == 0 {
					t.unlatchUnpin(n, mode, false)
					return nil, nil, fmt.Errorf("blinktree: node %d high fence without sibling", n.id)
				}
				t.enqueuePostFromSideMove(n, path, o.dx)
				if n, err = t.sideStep(n, mode, couple, o.sp); err != nil {
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
			// Descend. The child cannot be deleted between reading its
			// address and latching it: its deleter would need this node
			// exclusively latched to remove the index term (latch
			// coupling argument, §3.1.1).
			ci := o.childIn(t, n.c.Keys, &n.hs)
			if ci < 0 {
				t.unlatchUnpin(n, mode, false)
				return nil, nil, fmt.Errorf("blinktree: key %q below node %d low fence", o.key, n.id)
			}
			child := n.c.Children[ci]
			childMode := t.modeFor(n.level()-1, o.level, o.intent)

			path = append(path, pathEntry{
				ref:   ref{id: n.id, epoch: n.c.Epoch},
				level: n.level(),
				dd:    n.c.DD,
			})
			t.maybeEnqueueDelete(n, path, o.dx)

			var m *node
			if couple {
				m, err = t.pinLatchSpan(child, childMode, o.sp)
				t.unlatchUnpin(n, mode, false)
			} else {
				t.unlatchUnpin(n, mode, false)
				m, err = t.pinLatchSpan(child, childMode, o.sp)
			}
			if err != nil || m.dead {
				if err == nil {
					t.unlatchUnpin(m, childMode, false)
				}
				t.c.restarts.Add(1)
				continue restart
			}
			n = m
			mode = childMode
		}
	}
	t.traverseExhausted()
	return nil, nil, fmt.Errorf("blinktree: traversal live-locked after %d restarts", maxTraverseRestarts)
}

// sideStep latches n's right sibling in mode (coupled when couple), releases
// n, which the caller holds in the same mode, and counts the side traversal.
// A sibling that cannot be fetched or is dead is an error with nothing held.
func (t *Tree) sideStep(n *node, mode latch.Mode, couple bool, sp *obs.Span) (*node, error) {
	sib := n.c.Right
	var m *node
	var err error
	if couple {
		m, err = t.pinLatchSpan(sib, mode, sp)
		t.unlatchUnpin(n, mode, false)
	} else {
		t.unlatchUnpin(n, mode, false)
		m, err = t.pinLatchSpan(sib, mode, sp)
	}
	if err != nil {
		return nil, err
	}
	if m.dead {
		t.unlatchUnpin(m, mode, false)
		return nil, errDeadSibling
	}
	t.c.sideTraversals.Add(1)
	return m, nil
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

// enqueuePostFromSideMove re-discovers a missing index term: n's side link
// carries the sibling's address and key space (the Pi-tree property), which
// is the complete index term to post.
func (t *Tree) enqueuePostFromSideMove(n *node, path []pathEntry, dx uint64) {
	if n.c.Right == 0 || t.todo.postPending(n.id, n.c.Right) {
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
	a := action{
		kind:   actPost,
		level:  n.level(),
		origID: n.id, origEpoch: n.c.Epoch,
		newID:  n.c.Right,
		sep:    append([]byte(nil), n.c.High...),
		parent: parent,
		dx:     dx,
		dd:     dd,
	}
	t.c.postsEnqueued.Add(1)
	t.todo.enqueue(a)
}

// maybeEnqueueDelete enqueues a consolidation for an under-utilized node
// seen during traversal (A.1 step 5). The root is never consolidated, but a
// single-child index root triggers a shrink.
func (t *Tree) maybeEnqueueDelete(n *node, path []pathEntry, dx uint64) {
	if t.opts.NoDeleteSupport {
		return
	}
	// Never read the anchor here: we hold n's latch, and the shrink SMO
	// holds the anchor while waiting for a node latch. Whether n really is
	// the root is re-verified by processShrink under the anchor.
	isRoot := len(path) <= 1 // path already includes n itself when called after append
	if isRoot {
		if !n.isLeaf() && len(n.c.Children) == 1 && n.c.Right == 0 {
			t.todo.enqueue(action{
				kind: actShrink, origID: n.id, origEpoch: n.c.Epoch, level: n.level(),
			})
		}
		return
	}
	if !t.underutilized(n) {
		return
	}
	parent := path[len(path)-2] // entry above n
	t.c.deletesEnqueued.Add(1)
	t.todo.enqueue(action{
		kind:   actDelete,
		level:  n.level(),
		origID: n.id, origEpoch: n.c.Epoch,
		sep:    append([]byte(nil), n.c.Low...),
		parent: parent.ref,
		dx:     dx,
	})
}

// maybeEnqueueLeafDelete is the leaf-level under-utilization check done by
// read node / update node (§3.1.2–3.1.3) after an operation.
func (t *Tree) maybeEnqueueLeafDelete(leaf *node, path []pathEntry, dx uint64) {
	if t.opts.NoDeleteSupport || len(path) == 0 || !t.underutilized(leaf) {
		return
	}
	parent := path[len(path)-1]
	t.c.deletesEnqueued.Add(1)
	t.todo.enqueue(action{
		kind:   actDelete,
		level:  leaf.level(),
		origID: leaf.id, origEpoch: leaf.c.Epoch,
		sep:    append([]byte(nil), leaf.c.Low...),
		parent: parent.ref,
		dx:     dx,
	})
}
