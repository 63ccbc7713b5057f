package core

import (
	"fmt"

	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// recOpParams carries the logging identity of a record operation: the
// owning transaction (0 = non-transactional, auto-committed), the
// transaction's previous LSN for the undo backchain, and CLR fields when
// the operation compensates another during rollback.
type recOpParams struct {
	txn      uint64
	prevLSN  wal.LSN
	clr      bool
	undoNext wal.LSN
	// sp is the sampled operation's span (nil when unsampled); the WAL
	// append in logRecOp is timed into it.
	sp *obs.Span
}

// Get returns a copy of the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, error) { return t.lookup(nil, key, true) }

// GetInto appends the value stored under key to dst and returns the extended
// slice (no allocation when dst has room); on error, dst unchanged.
func (t *Tree) GetInto(dst, key []byte) ([]byte, error) { return t.lookup(dst, key, true) }

// Has reports whether key is present. It copies nothing.
func (t *Tree) Has(key []byte) (bool, error) {
	_, err := t.lookup(nil, key, false)
	if err == ErrKeyNotFound {
		return false, nil
	}
	return err == nil, err
}

// lookup is the point read behind Get, GetInto and Has: find key's leaf and,
// if value is set, append the record's value to dst.
func (t *Tree) lookup(dst, key []byte, value bool) ([]byte, error) {
	g, err := t.opBegin()
	if err != nil {
		return dst, err
	}
	defer t.opEnd(g)
	if len(key) == 0 {
		return dst, ErrEmptyKey
	}
	t.c.searches.Add(obs.StackHint(), 1)
	t0, sp := t.obsBegin(obs.OpSearch)
	defer t.obsEnd(obs.OpSearch, t0, sp)
	dx := t.dx.v.Load()
	var pb pathBuf
	leaf, path, err := t.traverseRead(traverseOpts{key: key, intent: latch.Shared, dx: dx, sp: sp}, pb[:0])
	if err != nil {
		return dst, err
	}
	pos, found := leaf.searchLeaf(t, key)
	if found && value {
		dst = append(dst, leaf.c.Vals[pos]...)
	}
	t.maybeEnqueueLeafDelete(leaf, path, dx)
	t.unlatchUnpin(leaf, latch.Shared, false)
	if !found {
		return dst, ErrKeyNotFound
	}
	return dst, nil
}

// Put inserts or replaces the record under key.
func (t *Tree) Put(key, val []byte) error {
	g, err := t.opBegin()
	if err != nil {
		return err
	}
	defer t.opEnd(g)
	if err := t.validateEntry(key, val); err != nil {
		return err
	}
	t.c.inserts.Add(1)
	t0, sp := t.obsBegin(obs.OpInsert)
	_, updated, err := t.putInternal(recOpParams{sp: sp}, key, val)
	if updated {
		t.c.updates.Add(1)
		t.obsEnd(obs.OpUpdate, t0, sp)
	} else {
		t.obsEnd(obs.OpInsert, t0, sp)
	}
	return err
}

// Delete removes the record under key, returning ErrKeyNotFound if absent.
func (t *Tree) Delete(key []byte) error {
	g, err := t.opBegin()
	if err != nil {
		return err
	}
	defer t.opEnd(g)
	if len(key) == 0 {
		return ErrEmptyKey
	}
	t.c.deletes.Add(1)
	t0, sp := t.obsBegin(obs.OpDelete)
	defer t.obsEnd(obs.OpDelete, t0, sp)
	_, err = t.deleteInternal(recOpParams{sp: sp}, key)
	return err
}

// putInternal traverses to the covering leaf and upserts. The bool result
// reports whether an existing record was replaced (an update) rather than a
// new one inserted. Non-transactional upserts first try the right-edge
// append fast path (appendfast.go), which falls through here when it
// declines.
func (t *Tree) putInternal(lp recOpParams, key, val []byte) (wal.LSN, bool, error) {
	if lp.txn == 0 && !lp.clr {
		if lsn, updated, done, err := t.appendFastPut(lp, key, val); done {
			return lsn, updated, err
		}
	}
	dx := t.dx.v.Load()
	var pb pathBuf
	leaf, path, err := t.traverse(traverseOpts{
		key: key, intent: latch.Update, promote: true, dx: dx, sp: lp.sp,
	}, pb[:0])
	if err != nil {
		return 0, false, err
	}
	return t.putOnLeaf(leaf, path, dx, lp, key, val)
}

// putOnLeaf performs the upsert on an exclusively latched leaf (update
// node, §3.1.3), splitting and moving right as needed. It consumes the
// latch and pin.
func (t *Tree) putOnLeaf(leaf *node, path []pathEntry, dx uint64, lp recOpParams, key, val []byte) (wal.LSN, bool, error) {
	for {
		pos, found := leaf.searchLeaf(t, key)
		if found {
			delta := len(val) - len(leaf.c.Vals[pos])
			if leaf.size()+delta <= t.opts.PageSize {
				old := leaf.c.Vals[pos]
				leaf.c.Vals[pos] = append([]byte(nil), val...)
				leaf.raw += delta
				lsn, err := t.logRecOp(leaf, lp, wal.OpUpdate, key, val, old)
				t.noteRightEdge(leaf)
				t.unlatchUnpin(leaf, latch.Exclusive, true)
				return lsn, true, err
			}
		} else {
			need := page.EntrySize(page.Leaf, len(key), len(val))
			if leaf.size()+need <= t.opts.PageSize {
				leaf.insertLeafAt(pos, key, val)
				lsn, err := t.logRecOp(leaf, lp, wal.OpInsert, key, val, nil)
				t.noteRightEdge(leaf)
				t.unlatchUnpin(leaf, latch.Exclusive, true)
				return lsn, false, err
			}
		}
		// The record does not fit: split. The ARIES/IM comparator releases
		// the leaf, runs the complete multi-level SMO under the global
		// tree latch, and re-traverses; the paper's method does only the
		// mandatory first half split in line (§3.2.1), enqueues the
		// posting, and follows the side pointer if the key moved right.
		if t.opts.SerializeSMO {
			t.unlatchUnpin(leaf, latch.Exclusive, true)
			need := page.EntrySize(page.Leaf, len(key), len(val))
			if err := t.serializedSplit(key, need); err != nil {
				return 0, false, err
			}
			var err error
			leaf, path, err = t.traverse(traverseOpts{
				key: key, intent: latch.Update, promote: true, dx: dx, sp: lp.sp,
			}, path[:0])
			if err != nil {
				return 0, false, err
			}
			continue
		}
		parent, dd := parentFromPath(path)
		if err := t.splitLocked(leaf, parent, dd, dx); err != nil {
			t.unlatchUnpin(leaf, latch.Exclusive, true)
			return 0, false, err
		}
		// Follow the side pointer to the half that now covers the key. A
		// loop, not a single step: the posting enqueued by the split makes
		// the new sibling reachable through the parent at once, so by the
		// time its latch is granted here other writers may have filled and
		// split it again, and the key may lie further right still.
		for leaf.pastHigh(t, key) {
			right, err := t.pinLatchSpan(leaf.c.Right, latch.Exclusive, lp.sp)
			t.unlatchUnpin(leaf, latch.Exclusive, true)
			if err != nil {
				return 0, false, err
			}
			leaf = right
		}
	}
}

// deleteInternal traverses to the covering leaf and removes key.
func (t *Tree) deleteInternal(lp recOpParams, key []byte) (wal.LSN, error) {
	dx := t.dx.v.Load()
	var pb pathBuf
	leaf, path, err := t.traverse(traverseOpts{
		key: key, intent: latch.Update, promote: true, dx: dx, sp: lp.sp,
	}, pb[:0])
	if err != nil {
		return 0, err
	}
	return t.deleteOnLeaf(leaf, path, dx, lp, key)
}

// deleteOnLeaf removes key from an exclusively latched leaf, consuming the
// latch and pin.
func (t *Tree) deleteOnLeaf(leaf *node, path []pathEntry, dx uint64, lp recOpParams, key []byte) (wal.LSN, error) {
	pos, found := leaf.searchLeaf(t, key)
	if !found {
		t.unlatchUnpin(leaf, latch.Exclusive, false)
		return 0, ErrKeyNotFound
	}
	kcopy := leaf.c.Keys[pos]
	old := leaf.removeLeafAt(pos)
	lsn, err := t.logRecOp(leaf, lp, wal.OpDelete, kcopy, nil, old)
	t.maybeEnqueueLeafDelete(leaf, path, dx)
	t.unlatchUnpin(leaf, latch.Exclusive, true)
	return lsn, err
}

// logRecOp appends the physiological log record for a leaf modification and
// stamps the leaf's page LSN; the leaf's first change since the checkpoint
// also carries its after-image. The record is encoded before AppendFunc
// returns, so it can point at key, val and old, which the leaf latch keeps
// valid until then. No-op without a log.
func (t *Tree) logRecOp(leaf *node, lp recOpParams, op wal.Op, key, val, old []byte) (wal.LSN, error) {
	if t.log == nil {
		return 0, nil
	}
	at0 := lp.sp.Now()
	defer lp.sp.StageSince(obs.StageWALAppend, 0, at0)
	first := t.firstChange(leaf)
	if first {
		t.c.firstChangeImages.Add(1)
	}
	return t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
		leaf.c.LSN = uint64(lsn)
		r := &wal.Record{
			Type:     wal.TRecOp,
			Txn:      lp.txn,
			PrevLSN:  lp.prevLSN,
			Op:       op,
			Page:     leaf.id,
			Key:      key,
			Val:      val,
			OldVal:   old,
			CLR:      lp.clr,
			UndoNext: lp.undoNext,
		}
		if first {
			r.Images = t.pageImage(leaf)
		}
		return r
	})
}

// logImage gives n's first change since the checkpoint an image-only
// record when nothing else logs that change (the D_D bump of accessParent):
// a write-back of n can tear, and the redo window must hold a copy. Its
// LSN stamps n, so the WAL rule forces the image before n is written.
func (t *Tree) logImage(n *node) {
	if t.log == nil || !t.firstChange(n) {
		return
	}
	t.c.firstChangeImages.Add(1)
	_, err := t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
		n.c.LSN = uint64(lsn)
		return &wal.Record{Type: wal.TRecOp, Page: n.id, Images: t.pageImage(n)}
	})
	if err != nil {
		panic(fmt.Sprintf("blinktree: logging image of page %d: %v", n.id, err))
	}
}

// parentFromPath extracts the remembered parent reference and its D_D from
// a traversal path; a zero ref means the node was at root level.
func parentFromPath(path []pathEntry) (ref, uint64) {
	if len(path) == 0 {
		return ref{}, 0
	}
	top := path[len(path)-1]
	return top.ref, top.dd
}
