package core

import (
	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// processDelete executes the node delete atomic action (A.5): consolidate
// an under-utilized node into its left sibling under the same parent, after
// removing its index term.
//
// Latch order: parent (X) → left sibling (X) → victim (X, via the left
// sibling's side pointer), all downward/rightward — deadlock-free. One
// deviation from the paper's step 7 (documented in DESIGN.md): the parent
// latch is held until the single atomic SMO log record has been appended,
// so that the three page after-images form one atomic unit.
func (t *Tree) processDelete(a action) {
	if a.parent.id == 0 {
		// Parent unknown (e.g. the victim's parent was itself enqueued for
		// deletion, or the action was discovered without a full path).
		// Resolve it with a fresh traversal and a freshly remembered D_X.
		if !t.resolveParent(&a) {
			t.c.deleteAbortEdge.Add(1)
			t.traceSMO(obs.EvAbortEdge, &a)
			return
		}
	}
	p, err := t.accessParent(&a, true)
	if err != nil {
		switch {
		case err == errIdentity:
			t.c.deleteAbortID.Add(1)
		case t.failed() == nil:
			t.c.deleteAbortDX.Add(1)
		}
		return
	}
	// p is exclusively latched and covers a.sep (the victim's immutable
	// low key). Locate the victim's index term.
	i, found := t.search(&p.c().Recs, a.sep)
	if !found || p.c().Recs.Child(i) != a.origID {
		// The term was never posted, or the victim is already gone.
		t.c.deleteAbortEdge.Add(1)
		t.traceSMO(obs.EvAbortEdge, &a)
		t.unlatchUnpin(p, latch.Exclusive, true)
		return
	}
	if i == 0 {
		// Leftmost child of this parent: no left sibling under the same
		// parent — abort (A.5 step 2). Consolidating the parent later can
		// unblock this node.
		t.c.deleteAbortEdge.Add(1)
		t.traceSMO(obs.EvAbortEdge, &a)
		t.unlatchUnpin(p, latch.Exclusive, true)
		return
	}

	left, ok := t.fetchLive(p.c().Recs.Child(i-1), latch.Exclusive, nil)
	if !ok {
		t.c.deleteAbortEdge.Add(1)
		t.traceSMO(obs.EvAbortEdge, &a)
		t.unlatchUnpin(p, latch.Exclusive, true)
		return
	}
	// Reach the victim by side traversal from its left sibling (A.5 step
	// 3); a mismatch means splits intervened.
	if left.c().Right != a.origID {
		t.c.deleteAbortEdge.Add(1)
		t.traceSMO(obs.EvAbortEdge, &a)
		t.unlatchUnpin(left, latch.Exclusive, false)
		t.unlatchUnpin(p, latch.Exclusive, true)
		return
	}
	victim, ok := t.fetchSame(ref{id: a.origID, epoch: a.origEpoch}, latch.Exclusive, nil)
	if !ok {
		t.c.deleteAbortEdge.Add(1)
		t.traceSMO(obs.EvAbortEdge, &a)
		t.unlatchUnpin(left, latch.Exclusive, false)
		t.unlatchUnpin(p, latch.Exclusive, true)
		return
	}

	// Step 4: still worth consolidating, and does it fit?
	if !t.underutilized(victim.c()) || t.mergedSize(left, victim) > t.opts.PageSize {
		t.c.deleteSkipFit.Add(1)
		t.traceSMO(obs.EvSkipFit, &a)
		t.unlatchUnpin(victim, latch.Exclusive, false)
		t.unlatchUnpin(left, latch.Exclusive, false)
		t.unlatchUnpin(p, latch.Exclusive, true)
		return
	}

	// Drain comparator: the page is first marked empty with its own logged
	// update, the extra update and log record §1.3 criticizes.
	if t.opts.DeletePolicy == Drain {
		if err := t.logDrainMark(victim); err != nil {
			t.fail(err, victim)
			t.unlatchUnpin(victim, latch.Exclusive, false)
			t.unlatchUnpin(left, latch.Exclusive, false)
			t.unlatchUnpin(p, latch.Exclusive, true)
			return
		}
	}

	// Step 5: remove the index term; subsequent searches for the victim's
	// key space go through the left sibling's side pointer (which still
	// reaches the victim until the merge below completes — and afterwards,
	// the left sibling covers the space itself).
	p.removeIndexTermAt(i)

	// Step 8: merge the victim into the left sibling — contents, high
	// fence and side pointer.
	l, v := left.edit(), victim.c()
	l.High, l.Right = v.High, v.Right
	l.Recs.AppendFrom(&v.Recs, 0)
	if v.Level == 1 {
		// Merging two parent-of-leaf nodes invalidates D_D values
		// remembered against either: force a visible change.
		l.DD += v.DD + 1
	}
	l.raw = l.countRaw()
	left.install(l)
	victim.kill()

	if err := t.logConsolidate(p, left, victim); err != nil {
		// The victim stays allocated, dead: its deallocation is unlogged.
		t.fail(err, p, left)
		t.unlatchUnpin(p, latch.Exclusive, true)
		t.unlatchUnpin(left, latch.Exclusive, true)
		t.unlatchUnpin(victim, latch.Exclusive, false)
		return
	}

	if victim.isLeaf() {
		t.c.leafConsolidated.Add(1)
	} else {
		t.c.indexConsolidated.Add(1)
	}
	t.traceSMO(obs.EvCompleted, &a)

	// Step 6: the parent may itself have become under-utilized. (Whether it
	// is actually consolidatable — e.g. not the root — is re-checked when
	// the action runs; the anchor must not be read while holding latches.)
	dxNow := t.dx.v.Load()
	if t.underutilized(p.c()) {
		t.enqueueDelete(p.c().Level, ref{id: p.id, epoch: p.c().Epoch}, p.c().Low, ref{}, dxNow)
	}

	// Step 7: release the parent; the left sibling and victim latches
	// protect the rest.
	t.unlatchUnpin(p, latch.Exclusive, true)
	t.unlatchUnpin(left, latch.Exclusive, true)
	t.unlatchUnpin(victim, latch.Exclusive, false)

	// Step 8b: deallocate the victim's page. Under the drain policy the
	// page must "live" until no pointers to it exist ([16]); the grace
	// period defers the deallocation.
	if t.opts.DeletePolicy == Drain {
		t.drainDefer(victim.id)
	} else {
		t.reclaim(victim.id)
	}
}

// logDrainMark writes the drain comparator's mark-empty update for the
// victim page.
func (t *Tree) logDrainMark(victim *node) error {
	if t.log == nil {
		return nil
	}
	_, err := t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
		victim.lsn = uint64(lsn)
		return &wal.Record{Type: wal.TSMO, SMO: wal.SMODrainMark, Images: t.pageImage(victim)}
	})
	return err
}

// resolveParent fills a.parent (and re-remembers D_X) by traversing to the
// victim's parent level. Returns false if the victim is at or above the
// root level (nothing to consolidate into).
func (t *Tree) resolveParent(a *action) bool {
	_, rootLevel := t.readAnchor()
	if rootLevel <= a.level {
		return false
	}
	dx := t.dx.v.Load()
	p, _, err := t.traverse(traverseOpts{
		key: a.sep, level: a.level + 1, intent: latch.Shared, dx: dx,
	}, nil)
	if err != nil {
		return false
	}
	a.parent = ref{id: p.id, epoch: p.c().Epoch}
	a.dx = dx
	t.unlatchUnpin(p, latch.Shared, false)
	return true
}

// logConsolidate appends the atomic SMO record for a consolidation: parent
// and left-sibling after-images plus the victim's deallocation.
func (t *Tree) logConsolidate(p, left, victim *node) error {
	if t.log == nil {
		return nil
	}
	_, err := t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
		p.lsn = uint64(lsn)
		left.lsn = uint64(lsn)
		return &wal.Record{
			Type:     wal.TSMO,
			SMO:      wal.SMOConsolidate,
			Images:   append(t.pageImage(p), t.pageImage(left)...),
			Deallocs: []page.PageID{victim.id},
		}
	})
	return err
}

// processShrink removes a root that has exactly one child and no right
// sibling, making the child the new root. The root is an index node, so its
// deletion increments D_X. Latch order: anchor ≺ D_X ≺ node.
func (t *Tree) processShrink(a action) {
	t.anchorMu.Lock()
	defer t.anchorMu.Unlock()
	if id, _ := t.readAnchor(); id != a.origID {
		return // already shrunk or grown past
	}
	t.dx.l.Acquire(latch.Exclusive)
	defer t.dx.l.Release(latch.Exclusive)

	root, ok := t.fetchSame(ref{id: a.origID, epoch: a.origEpoch}, latch.Exclusive, nil)
	if !ok {
		return
	}
	if root.isLeaf() || root.c().Recs.Len() != 1 || root.c().Right != 0 {
		t.unlatchUnpin(root, latch.Exclusive, false)
		return
	}
	// The pin taken here becomes the new anchor record's standing pin.
	child, err := t.fetch(root.c().Recs.Child(0))
	if err != nil {
		t.unlatchUnpin(root, latch.Exclusive, false)
		return
	}
	// The record goes first: a shrink it cannot log is abandoned unmade.
	if t.log != nil {
		_, err := t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
			return &wal.Record{
				Type:     wal.TSMO,
				SMO:      wal.SMOShrink,
				Deallocs: []page.PageID{root.id},
				Root:     child.id,
			}
		})
		if err != nil {
			t.fail(err)
			t.unpin(child)
			t.unlatchUnpin(root, latch.Exclusive, false)
			return
		}
	}
	t.dx.v.Add(1)
	t.c.dxIncrements.Add(1)
	root.kill()

	t.setAnchor(child, false)
	t.c.shrinks.Add(1)
	t.traceSMO(obs.EvCompleted, &a)
	t.unlatchUnpin(root, latch.Exclusive, false)
	t.reclaim(root.id)
}
