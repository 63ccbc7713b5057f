package core

import (
	"fmt"

	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// processActionGated runs one to-do action, serialized under the global
// tree latch when the ARIES/IM comparator is configured, and piggybacks
// drain-policy husk reclamation.
func (t *Tree) processActionGated(a action) {
	if t.opts.SerializeSMO {
		t.smoMu.Lock()
		t.processAction(a)
		t.smoMu.Unlock()
	} else {
		t.processAction(a)
	}
	if t.opts.DeletePolicy == Drain {
		t.drainReclaim(false)
	}
}

// serializedSplit is the ARIES/IM comparator's split path: the whole
// structure modification — leaf split, index-term postings, any recursive
// parent splits — runs to completion under the global tree latch before the
// triggering operation proceeds. No latches are held on entry.
func (t *Tree) serializedSplit(key []byte, need int) error {
	t.smoMu.Lock()
	defer t.smoMu.Unlock()
	dx := t.dx.v.Load()
	leaf, path, err := t.traverse(traverseOpts{
		key: key, intent: latch.Update, promote: true, dx: dx,
	}, nil)
	if err != nil {
		return err
	}
	if leaf.size()+need > t.opts.PageSize && len(leaf.c.Keys) >= 2 {
		parent, dd := parentFromPath(path)
		err = t.splitLocked(leaf, parent, dd, dx)
	}
	t.unlatchUnpin(leaf, latch.Exclusive, true)
	if err != nil {
		return err
	}
	// Eagerly complete every queued structure modification (postings and
	// their recursive splits) while holding the tree latch.
	for {
		a, ok := t.todo.tryPop()
		if !ok {
			return nil
		}
		t.processAction(a)
		t.todo.finish(a)
	}
}

// processAction executes one lazy structure modification from the to-do
// queue. Actions run with no latches held on entry (a precondition of
// access parent, §3.2.2); failures abandon the action — the B-link tree
// stays search-correct and the need is re-discovered (§2.3).
func (t *Tree) processAction(a action) {
	t.c.todoProcessed.Add(1)
	t.traceSMO(obs.EvStarted, &a)
	t0 := t.obsStart()
	switch a.kind {
	case actPost:
		t.processPost(a)
	case actDelete:
		t.processDelete(a)
	case actShrink:
		t.processShrink(a)
	case actReclaim:
		t.reclaimAction(a)
	}
	t.obsActionDone(a.kind, t0)
}

// accessParent implements the paper's access parent routine (A.3): it
// encapsulates all testing and updating of both delete states, and returns
// the current parent node latched (Update mode for posts, Exclusive for
// deletes) and pinned. Because of concurrent splitting the returned node
// may be a right sibling of the remembered parent. An errDeleteState return
// means the action must be abandoned.
func (t *Tree) accessParent(a *action, forDelete bool) (*node, error) {
	checkState := !t.opts.NoDeleteSupport
	dxMode := latch.Shared
	if forDelete {
		dxMode = latch.Exclusive
	}
	if checkState {
		// Step 1–2: latch D_X (coupled with the parent latch below) and
		// test it. If any index node was deleted since the action was
		// remembered, the parent may be gone: abandon.
		t.dx.l.Acquire(dxMode)
		if seen := t.dx.v.Load(); seen != a.dx {
			t.dx.l.Release(dxMode)
			t.traceAbort(obs.EvAbortDX, a, a.dx, seen)
			return nil, errDeleteState
		}
		// Step 3: an index-node delete updates D_X now, before the
		// consolidation happens. Conservative: even if the consolidation
		// later aborts, the increment only causes extra abandons.
		if forDelete && a.level >= 1 {
			t.dx.v.Add(1)
			t.c.dxIncrements.Add(1)
		}
	}

	// Step 4: latch the remembered parent, then release D_X. Identity
	// check: the reference must still name the same incarnation (closes the
	// recycled-page ABA window; DESIGN.md).
	p, ok := t.fetchSame(a.parent, latch.Update, nil)
	if checkState {
		t.dx.l.Release(dxMode)
	}
	if !ok {
		t.traceAbort(obs.EvAbortIdentity, a, 0, 0)
		return nil, errIdentity
	}

	// Step 5: the parent may have split; follow side pointers (latch
	// coupled, Update mode) until the node covering the separator key.
	for p.pastHigh(t, a.sep) {
		if p.c.Right == 0 {
			t.unlatchUnpin(p, latch.Update, false)
			return nil, fmt.Errorf("blinktree: parent %d high fence without sibling", p.id)
		}
		if p, ok = t.sideStep(p, latch.Update, true, nil); !ok {
			t.traceAbort(obs.EvAbortIdentity, a, 0, 0)
			return nil, errDeleteState
		}
	}

	if forDelete {
		// Deletes modify the parent (index term removal), so take the
		// exclusive latch now; D_D for a data-node delete is updated under
		// it (step 6).
		p.latch.Promote()
		if checkState && a.level == 0 {
			p.c.DD++
			t.c.ddIncrements.Add(1)
			p.frame.MarkDirty()
			// Unlogged, and the consolidation may yet abort: if this is
			// p's first change since the checkpoint, log p's image.
			t.logImage(p)
		}
		if checkState && t.opts.SingleDeleteState {
			// Ablation: all deletes funnel into the global counter.
			t.dx.v.Add(1)
		}
		return p, nil
	}

	// Step 7: posting verification — has the new node survived?
	if checkState {
		if t.opts.SingleDeleteState {
			// Ablation: verify every post against the global counter.
			if seen := t.dx.v.Load(); seen != a.dx {
				t.unlatchUnpin(p, latch.Update, false)
				t.traceAbort(obs.EvAbortDX, a, a.dx, seen)
				return nil, errDeleteState
			}
		} else if a.level == 0 {
			// Data node: its deletion would have bumped this parent's
			// D_D (or a value copied forward through parent splits).
			if seen := p.c.DD; seen != a.dd {
				t.unlatchUnpin(p, latch.Update, false)
				t.traceAbort(obs.EvAbortDD, a, a.dd, seen)
				return nil, errDDChanged
			}
		} else {
			// Index node: re-check D_X (step 7b).
			if seen := t.dx.v.Load(); seen != a.dx {
				t.unlatchUnpin(p, latch.Update, false)
				t.traceAbort(obs.EvAbortDX, a, a.dx, seen)
				return nil, errDeleteState
			}
		}
	}
	return p, nil
}

// Sentinel errors distinguishing abandon reasons for the statistics.
var (
	errIdentity  = fmt.Errorf("%w (identity)", errDeleteState)
	errDDChanged = fmt.Errorf("%w (D_D)", errDeleteState)
)

// processPost executes the second half split: posting the index term for a
// split node to its parent (A.4).
func (t *Tree) processPost(a action) {
	if a.parent.id == 0 {
		t.postAtRootLevel(a)
		return
	}
	p, err := t.accessParent(&a, false)
	if err != nil {
		switch err {
		case errDDChanged:
			t.c.postsAbortDD.Add(1)
		case errIdentity:
			t.c.postsAbortID.Add(1)
		default:
			t.c.postsAbortDX.Add(1)
		}
		return
	}
	t.postInto(p, a)
}

// postInto inserts the index term (a.sep → a.newID) into the Update-latched
// parent p, splitting p if necessary. Consumes p's latch and pin.
func (t *Tree) postInto(p *node, a action) {
	p.latch.Promote()
	for {
		if p.findChild(a.newID) >= 0 {
			t.c.postsDuplicate.Add(1)
			t.unlatchUnpin(p, latch.Exclusive, false)
			t.traceSMO(obs.EvCompleted, &a)
			return
		}
		// A term with the same key but a different child means the key
		// space boundary was recreated by unrelated SMOs; the posting is
		// stale. Abandon.
		if i, _ := p.searchIndexKey(t, a.sep); i {
			t.c.postsDuplicate.Add(1)
			t.unlatchUnpin(p, latch.Exclusive, false)
			t.traceSMO(obs.EvCompleted, &a)
			return
		}
		need := page.EntrySize(page.Index, len(a.sep), 0)
		if p.size()+need <= t.opts.PageSize {
			p.insertIndexTerm(t, a.sep, a.newID)
			t.logPost(p)
			t.c.postsDone.Add(1)
			t.unlatchUnpin(p, latch.Exclusive, true)
			t.traceSMO(obs.EvCompleted, &a)
			return
		}
		// The parent itself is full: split it (a separate atomic action,
		// fully decoupled, §3.2.3). Its own index term goes through the
		// to-do queue with an unknown parent (resolved by traversal).
		if err := t.splitLocked(p, ref{}, 0, t.dx.v.Load()); err != nil {
			t.unlatchUnpin(p, latch.Exclusive, true)
			return
		}
		if p.pastHigh(t, a.sep) {
			right, err := t.pinLatch(p.c.Right, latch.Exclusive)
			t.unlatchUnpin(p, latch.Exclusive, true)
			if err != nil {
				return
			}
			p = right
		}
	}
}

// logPost writes the one-page SMO record for an index-term change in p.
func (t *Tree) logPost(p *node) {
	if t.log == nil {
		return
	}
	_, err := t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
		p.c.LSN = uint64(lsn)
		return &wal.Record{Type: wal.TSMO, SMO: wal.SMOPost, Images: t.pageImage(p)}
	})
	if err != nil {
		panic(fmt.Sprintf("blinktree: logging post: %v", err))
	}
}

// postAtRootLevel handles a post whose splitting node was at root level
// when remembered: either grow a new root above it, or — if the root has
// already changed — find the parent by traversal and post normally.
//
// Such an action remembered no parent, so it carries no D_D (and no
// parent-relative D_X) to verify its new node against, and the node may
// since have been posted by another discovery of the same split,
// consolidated away, and its page reused for a different key space. Both
// branches therefore test the node itself (newNodeStands), at a moment when
// it cannot be consolidated: under the anchor while its level has no parent,
// or with the parent latched.
func (t *Tree) postAtRootLevel(a action) {
	t.anchorMu.Lock()
	rootID, rootLevel := t.readAnchor()
	if rootID == a.origID && rootLevel == a.level {
		if t.newNodeStands(&a) {
			t.growLocked(a)
		}
		t.anchorMu.Unlock()
		return
	}
	t.anchorMu.Unlock()

	if rootLevel <= a.level {
		// The splitting node is on the root's level but is not the root:
		// it is an unposted right sibling of the root chain. Its term can
		// only be posted after the chain head grows a new root; defer.
		t.c.postsRequeued.Add(1)
		t.todo.requeue(a)
		return
	}

	// The root has grown since the action was remembered: find the parent
	// by a normal latch-coupled traversal.
	p, _, err := t.traverse(traverseOpts{
		key: a.sep, level: a.level + 1, intent: latch.Update, dx: t.dx.v.Load(),
	}, nil)
	if err != nil {
		t.c.postsRequeued.Add(1)
		t.todo.requeue(a)
		return
	}
	if !t.newNodeStands(&a) {
		t.unlatchUnpin(p, latch.Update, false)
		return
	}
	t.postInto(p, a)
}

// newNodeStands reports whether a post's new node is still what the split
// made it: alive, on the split's level, and beginning at the separator. A
// false result is counted and traced as an identity abort.
func (t *Tree) newNodeStands(a *action) bool {
	if n, ok := t.fetchLive(a.newID, latch.Shared, nil); ok {
		stands := n.c.Level == a.level && t.cmp(n.c.Low, a.sep) == 0
		t.unlatchUnpin(n, latch.Shared, false)
		if stands {
			return true
		}
	}
	t.c.postsAbortID.Add(1)
	t.traceAbort(obs.EvAbortIdentity, a, 0, 0)
	return false
}

// growLocked adds a new root above the old one (anchorMu held). The new
// root's two children are the old root and its first right sibling; any
// further unposted siblings are reached by side traversal and posted later.
func (t *Tree) growLocked(a action) {
	newRootC := page.Content{
		Kind:     page.Index,
		Level:    a.level + 1,
		Low:      []byte{},
		Keys:     [][]byte{{}, append([]byte(nil), a.sep...)},
		Children: []page.PageID{a.origID, a.newID},
	}
	root, err := t.allocNode(newRootC)
	if err != nil {
		return // allocation failure: the tree stays correct, grow retries
	}
	if t.log != nil {
		_, err = t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
			root.c.LSN = uint64(lsn)
			root.c.Epoch = uint64(lsn)
			return &wal.Record{
				Type:   wal.TSMO,
				SMO:    wal.SMOGrow,
				Images: t.pageImage(root),
				Allocs: []page.PageID{root.id},
				Root:   root.id,
			}
		})
		if err != nil {
			panic(fmt.Sprintf("blinktree: logging grow: %v", err))
		}
	}
	t.setAnchor(root, true)
	t.c.grows.Add(1)
	t.c.postsDone.Add(1)
	t.traceSMO(obs.EvCompleted, &a)
}
