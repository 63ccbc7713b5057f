package core

import (
	"bytes"
	"errors"
	"testing"

	"blinktree/internal/latch"
	"blinktree/internal/page"
)

// TestAccessParentFollowsParentSplit: the remembered parent splits before
// the posting runs; access parent must ride the parent's side pointer to
// the node now covering the separator (A.3 step 5).
func TestAccessParentFollowsParentSplit(t *testing.T) {
	tr := buildFigureTree(t)
	a := splitOneLeaf(t, tr)
	// Force the remembered parent to split by posting many other terms
	// into it: split more leaves in the same key region and post each.
	// (Bounded: once the parent splits, later leaves hang off its halves.)
	parentBefore, err := tr.NodeSnapshot(a.parent.id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		b := splitOneLeaf(t, tr)
		tr.processPost(b)
	}
	parentAfter, err := tr.NodeSnapshot(a.parent.id)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(parentBefore.High, parentAfter.High) {
		t.Logf("note: remembered parent did not split; rightward path not exercised")
	}
	// Whether or not the parent actually split, the original posting must
	// succeed or abort cleanly — never corrupt the tree.
	tr.processPost(a)
	mustVerify(t, tr)
	// The new node must be reachable without side traversal after drain.
	g, err := tr.NodeSnapshot(a.newID)
	if err == nil && len(g.Keys) > 0 {
		if _, err := tr.Get(g.Keys[0]); err != nil {
			t.Fatalf("key in new node lost: %v", err)
		}
	}
}

// TestPostDuplicateIsIdempotent: processing the same post twice (double
// re-discovery) must insert the term once.
func TestPostDuplicateIsIdempotent(t *testing.T) {
	tr := buildFigureTree(t)
	a := splitOneLeaf(t, tr)
	b := a // the same action, re-discovered
	tr.processPost(a)
	done := tr.Stats().PostsDone
	tr.processPost(b)
	if tr.Stats().PostsDone != done {
		t.Fatal("duplicate posting inserted a second term")
	}
	if tr.Stats().PostsDuplicate == 0 {
		t.Fatal("duplicate not recognized")
	}
	mustVerify(t, tr)
}

// TestRootGrowRace: two splits of the same root-level node both enqueue
// with parent hint 0; the first grows, the second must fall back to a
// traversal and still post.
func TestRootGrowRace(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	// Fill the single-leaf root until two splits have happened, capturing
	// both post actions unprocessed.
	var posts []action
	i := 0
	for len(posts) < 2 {
		if err := tr.Put(key(i), bytes.Repeat([]byte("v"), 40)); err != nil {
			t.Fatal(err)
		}
		i++
		for _, a := range takeQueuedActions(tr) {
			if a.kind == actPost {
				posts = append(posts, a)
			}
		}
	}
	if posts[0].parent.id != 0 || posts[1].parent.id != 0 {
		t.Fatalf("expected root-level posts, got parents %d %d",
			posts[0].parent.id, posts[1].parent.id)
	}
	tr.processPost(posts[0]) // grows a new root
	if tr.Height() != 1 {
		t.Fatalf("height after grow = %d", tr.Height())
	}
	tr.processPost(posts[1]) // must fall back to traversal
	mustVerify(t, tr)
	if tr.Stats().Grows != 1 {
		t.Fatalf("grows = %d, want 1", tr.Stats().Grows)
	}
}

// TestShrinkStaleActionIgnored: a shrink action for a node that is no
// longer the root is a no-op.
func TestShrinkStaleActionIgnored(t *testing.T) {
	tr := buildFigureTree(t)
	oldRoot := tr.RootID()
	shrinks := tr.Stats().Shrinks
	tr.processShrink(action{kind: actShrink, origID: oldRoot + 999, level: 1})
	tr.processShrink(action{kind: actShrink, origID: oldRoot, origEpoch: 12345, level: 1})
	if tr.Stats().Shrinks != shrinks {
		t.Fatal("stale shrink executed")
	}
	mustVerify(t, tr)
}

// TestDeleteActionStaleVictim: the victim was already consolidated (or its
// page recycled); the delete action must abort on the epoch/side checks.
func TestDeleteActionStaleVictim(t *testing.T) {
	tr := buildFigureTree(t)
	leaves, _ := tr.LevelNodes(0)
	victim, _ := tr.NodeSnapshot(leaves[2])
	pInfo := parentSnapshotOf(t, tr, victim.ID)
	a := action{
		kind: actDelete, level: 0,
		origID: victim.ID, origEpoch: victim.Epoch + 7, // wrong incarnation
		sep:    victim.Low,
		parent: ref{id: pInfo.ID, epoch: pInfo.Epoch},
		dx:     tr.DX(),
	}
	edge := tr.Stats().DeleteAbortEdge
	tr.processDelete(a)
	if tr.Stats().DeleteAbortEdge != edge+1 {
		t.Fatal("stale victim not detected")
	}
	mustVerify(t, tr)
}

// parentSnapshotOf finds the level-1 node holding the index term for leaf.
func parentSnapshotOf(t *testing.T, tr *Tree, leaf page.PageID) NodeInfo {
	t.Helper()
	parents, err := tr.LevelNodes(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range parents {
		info, err := tr.NodeSnapshot(pid)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range info.Children {
			if c == leaf {
				return info
			}
		}
	}
	t.Fatalf("no parent holds an index term for leaf %d", leaf)
	return NodeInfo{}
}

// TestLeftmostChildNotConsolidated (A.5 step 2).
func TestLeftmostChildNotConsolidated(t *testing.T) {
	tr := buildFigureTree(t)
	parents, err := tr.LevelNodes(1)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := tr.NodeSnapshot(parents[0])
	leftmost := p.Children[0]
	li, _ := tr.NodeSnapshot(leftmost)
	a := action{
		kind: actDelete, level: 0,
		origID: leftmost, origEpoch: li.Epoch,
		sep:    li.Low,
		parent: ref{id: p.ID, epoch: p.Epoch},
		dx:     tr.DX(),
	}
	edge := tr.Stats().DeleteAbortEdge
	tr.processDelete(a)
	if tr.Stats().DeleteAbortEdge != edge+1 {
		t.Fatal("leftmost child consolidation not refused")
	}
	mustVerify(t, tr)
}

// TestSingleDeleteStateAblationCore: with the global-counter ablation, a
// leaf delete invalidates a pending posting even under a different parent.
func TestSingleDeleteStateAblationCore(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4, SingleDeleteState: true})
	for i := 0; i < 600; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	a := splitOneLeaf(t, tr)
	// A consolidation anywhere bumps the one global counter.
	for i := 400; i < 470; i++ {
		tr.Delete(key(i))
	}
	for _, act := range takeQueuedActions(tr) {
		if act.kind == actDelete {
			tr.processDelete(act)
		}
	}
	if tr.Stats().LeafConsolidated == 0 {
		t.Skip("no consolidation achieved")
	}
	aborts := tr.Stats().PostsAbortDX
	tr.processPost(a)
	if tr.Stats().PostsAbortDX != aborts+1 {
		t.Fatal("global-counter ablation did not abort the posting")
	}
	mustVerify(t, tr)
}

// TestRelatchDirect exercises the re-latch procedure in isolation.
func TestRelatchDirect(t *testing.T) {
	tr := buildFigureTree(t)
	dx := tr.DX()
	k := key(150)
	leaf, path, err := tr.traverse(traverseOpts{key: k, intent: latch.Shared, dx: dx}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.unlatchUnpin(leaf, latch.Shared, false)

	// Ordinary re-latch succeeds and finds the same leaf.
	leaf2, _, err := tr.relatch(path, k, dx, latch.Shared, false)
	if err != nil {
		t.Fatal(err)
	}
	if !leaf2.covers(tr.cmp, k) {
		t.Fatal("re-latched leaf does not cover the key")
	}
	tr.unlatchUnpin(leaf2, latch.Shared, false)

	// D_X changed: re-latch must fail (transaction would abort).
	tr.dx.v.Add(1)
	if _, _, err := tr.relatch(path, k, dx, latch.Shared, false); !errors.Is(err, errDeleteState) {
		t.Fatalf("re-latch with stale D_X: %v", err)
	}
}

// TestRelatchAfterLeafSplit: the remembered leaf splits while unlatched;
// re-latch must land on the node now covering the key.
func TestRelatchAfterLeafSplit(t *testing.T) {
	tr := buildFigureTree(t)
	dx := tr.DX()
	k := key(150)
	leaf, path, err := tr.traverse(traverseOpts{key: k, intent: latch.Shared, dx: dx}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.unlatchUnpin(leaf, latch.Shared, false)
	// Split the leaf by stuffing its range.
	for i := 0; i < 30; i++ {
		tr.Put([]byte(string(k)+string(rune('a'+i))), bytes.Repeat([]byte("x"), 30))
	}
	leaf2, _, err := tr.relatch(path, k, dx, latch.Update, true)
	if err != nil {
		t.Fatal(err)
	}
	if !leaf2.covers(tr.cmp, k) {
		t.Fatal("re-latch missed the split")
	}
	tr.unlatchUnpin(leaf2, latch.Exclusive, false)
	mustVerify(t, tr)
}

// TestUpdateValueOverflowSplits: replacing a small value with one that no
// longer fits must split and still land the update.
func TestUpdateValueOverflowSplits(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	for i := 0; i < 10; i++ {
		tr.Put(key(i), []byte("small"))
	}
	big := bytes.Repeat([]byte("B"), 150)
	splits := tr.Stats().Splits
	if err := tr.Put(key(5), big); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(key(6), big); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(key(7), big); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Splits == splits {
		t.Skip("no split triggered; page larger than expected")
	}
	got, err := tr.Get(key(5))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("updated value lost: %v", err)
	}
	mustVerify(t, tr)
}
