package core

import (
	"bytes"
	"testing"

	"blinktree/internal/latch"
)

// Deterministic reproducers for the pin-free root (DESIGN.md §5, the anchor
// record's row). An optimistic reader takes no pin on an index root: it
// borrows the anchor record's node, and what licenses that is the record's
// standing pin. The moment a grow or shrink replaces the record the licence
// is gone — the frame can be evicted, the page reloaded into a new object,
// and the borrowed one is an orphan whose version word will never move again,
// so "the version still validates" says nothing. Each test parks a reader
// between loading the record and reading the root (optRoot / traverseOptFrom
// are apart for exactly this), makes the borrowed root such an orphan, and
// requires the descent to restart. Each fails if optValid's "anchor still
// equals my record" check is deleted: the orphan's version validates.

// staleRootReader builds a two-level tree, parks a reader on its anchor
// record, grows the tree by one level and round-trips the old root through
// the store, so the reader's borrowed root is an orphan. It returns the tree,
// the reader's record, and the next unused key number.
func staleRootReader(t *testing.T) (*Tree, *anchorRec, int) {
	t.Helper()
	tr := newTestTree(t, Options{MinFill: 0.4})
	withoutAppendFast(tr)
	next := 0
	put := func() {
		if err := tr.Put(key(next), valb(next)); err != nil {
			t.Fatal(err)
		}
		next++
		tr.DrainTodo()
	}
	// Four leaves under an index root: room to pick a non-leftmost child.
	for leaves := 0; tr.Height() < 1 || leaves < 4; put() {
		ids, err := tr.LevelNodes(0)
		if err != nil {
			t.Fatal(err)
		}
		leaves = len(ids)
	}

	a, n, ok := tr.optRoot(nil) // the reader parks here
	if !ok || n != a.node || a.level != 1 {
		t.Fatalf("optRoot = level %d, borrowed %v, ok %v; want the index root, borrowed", a.level, n == a.node, ok)
	}
	for tr.Height() < 2 {
		put()
	}
	if tr.anchor.Load() == a {
		t.Fatal("the tree grew but the anchor record did not change")
	}

	// Evict and reload the old root. The discard succeeding is itself the
	// claim under test: setAnchor dropped the standing pin and the parked
	// reader holds none.
	if err := tr.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if ok, err := tr.pool.DiscardIfUnpinned(a.id, nil); err != nil || !ok {
		t.Fatalf("old root %d still pinned after the grow (ok=%v err=%v)", a.id, ok, err)
	}
	reloaded, err := tr.fetch(a.id)
	if err != nil {
		t.Fatal(err)
	}
	tr.unpin(reloaded)
	if reloaded == a.node {
		t.Fatal("old root was not reloaded into a new object")
	}
	return tr, a, next
}

// resumeStaleReader lets the parked reader run on for k and requires it to
// restart, then checks an ordinary read still finds k.
func resumeStaleReader(t *testing.T, tr *Tree, a *anchorRec, k []byte) {
	t.Helper()
	if _, even := a.node.latch.OptVersion(); !even || a.node.c().dead {
		t.Fatal("scenario: the orphaned root must look alive and unlatched")
	}
	var pb pathBuf
	leaf, _, ok := tr.traverseOptFrom(a, a.node, traverseOpts{key: k, intent: latch.Shared, dx: tr.DX()}, pb[:0])
	if ok {
		tr.unlatchUnpin(leaf, latch.Shared, false)
		t.Fatalf("a descent from an orphaned root validated and reached node %d; it must restart", leaf.id)
	}
	if got, err := tr.Get(k); err != nil || len(got) == 0 {
		t.Fatalf("Get(%s) after the stale descent = %q, %v", k, got, err)
	}
	mustVerify(t, tr)
}

// TestOptReadStaleAnchorAcrossGrow: reader parked on the anchor record; the
// root grows; the old root is evicted and reloaded; the child the orphan still
// routes the reader's key to is consolidated away and its page recycled into a
// leaf that covers the key — so nothing below the root would stop the descent.
func TestOptReadStaleAnchorAcrossGrow(t *testing.T) {
	tr, a, _ := staleRootReader(t)
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	left, _ := tr.NodeSnapshot(leaves[0])
	victim, _ := tr.NodeSnapshot(leaves[1])
	k := victim.Keys[len(victim.Keys)-1]
	s := a.node.c()
	if ci := (&traverseOpts{key: k}).childIn(tr, s); ci < 0 || s.Recs.Child(ci) != victim.ID {
		t.Fatalf("scenario: the orphan does not route %s to leaf %d", k, victim.ID)
	}

	// Empty the victim but for k; the read discovers it under-utilized and the
	// drain consolidates it into its left sibling, freeing its page.
	for _, dk := range victim.Keys[:len(victim.Keys)-1] {
		if err := tr.Delete(dk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Get(k); err != nil {
		t.Fatal(err)
	}
	tr.DrainTodo()
	if tr.Stats().LeafConsolidated != 1 || tr.store.Allocated(victim.ID) {
		t.Fatalf("scenario: leaf %d was not consolidated away (%d consolidations)", victim.ID, tr.Stats().LeafConsolidated)
	}

	// Split the sibling that absorbed k with keys just below k: the new right
	// half takes the page just freed (the store reuses LIFO) and covers k.
	splits := tr.Stats().Splits
	for i := 0; tr.Stats().Splits == splits; i++ {
		nk := append(append([]byte(nil), left.Keys[len(left.Keys)-1]...), byte('a'+i%26), byte('a'+i/26))
		if err := tr.Put(nk, valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	recycled, err := tr.NodeSnapshot(victim.ID)
	if err != nil || recycled.Level != 0 || bytes.Compare(recycled.Low, k) > 0 ||
		(recycled.High != nil && bytes.Compare(k, recycled.High) >= 0) {
		t.Fatalf("scenario: page %d was not recycled into a leaf covering %s: %+v, %v", victim.ID, k, recycled, err)
	}
	resumeStaleReader(t, tr, a, k)
}

// TestOptReadStaleAnchorAcrossShrink: the same reader, but the tree shrinks
// back, so the anchor again names the page and level the reader's record
// does. Only the record's identity tells the two apart.
func TestOptReadStaleAnchorAcrossShrink(t *testing.T) {
	tr, a, next := staleRootReader(t)
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := tr.NodeSnapshot(leaves[1])
	third, _ := tr.NodeSnapshot(leaves[2])
	k := second.Keys[0]

	// Delete everything right of the third leaf; reads rediscover what the
	// deletes left under-utilized until the index level is one node again.
	for i := next - 1; i >= 0 && bytes.Compare(key(i), third.High) >= 0; i-- {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for tries := 0; tr.Height() > 1; tries++ {
		if tries == 100 {
			t.Fatalf("scenario: tree did not shrink back (height %d)", tr.Height())
		}
		tr.Has(key(next))
		tr.Has(k)
		tr.DrainTodo()
	}
	now := tr.anchor.Load()
	if now == a || now.id != a.id || now.level != a.level || now.node == a.node {
		t.Fatalf("scenario: want a new record for the same root page %d at level %d, have %+v", a.id, a.level, *now)
	}
	resumeStaleReader(t, tr, a, k)
}

// TestSetAnchorTradesStandingPins: exactly the published root carries the
// anchor's pin, across format, grow and shrink.
func TestSetAnchorTradesStandingPins(t *testing.T) {
	tr := newTestTree(t, Options{MinFill: 0.4})
	check := func(when string) {
		t.Helper()
		tr.DrainTodo()
		if s := tr.PoolStats(); s.Pinned != 1 {
			t.Fatalf("%s: %d frames pinned at rest, want the root alone", when, s.Pinned)
		}
		if ok, _ := tr.pool.DiscardIfUnpinned(tr.RootID(), nil); ok {
			t.Fatalf("%s: root %d is not pinned", when, tr.RootID())
		}
	}
	check("formatted")
	for i := 0; tr.Height() < 2; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			tr.DrainTodo()
		}
	}
	check("grown")
	n, _ := tr.Len()
	for i := 0; i < n; i++ {
		tr.Delete(key(i))
	}
	for tries := 0; tr.Height() > 0 && tries < 100; tries++ {
		tr.Has(key(0))
		tr.Has(key(n))
		tr.DrainTodo()
	}
	if tr.Height() != 0 {
		t.Fatalf("tree did not shrink back (height %d)", tr.Height())
	}
	check("shrunk")
}
