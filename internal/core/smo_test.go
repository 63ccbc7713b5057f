package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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

// TestShrinkStaleIncarnation: a shrink remembered against an earlier
// incarnation of the root's page must not remove the root now there, even
// when that root has one child and could be shrunk.
func TestShrinkStaleIncarnation(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4})
	for i := 0; tr.Stats().Splits == 0; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustVerify(t, tr) // posts the split: a root over two leaves
	// Empty the right leaf and consolidate it, leaving the root one child.
	root, err := tr.NodeSnapshot(tr.RootID())
	if err != nil {
		t.Fatal(err)
	}
	right, err := tr.NodeSnapshot(root.Children[len(root.Children)-1])
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range right.Keys {
		if err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range takeQueuedActions(tr) {
		if a.kind == actDelete {
			tr.processDelete(a)
		}
	}
	if root, _ = tr.NodeSnapshot(root.ID); len(root.Children) != 1 || root.Right != 0 {
		t.Fatalf("root %d has %d children and right sibling %d; the scenario needs one child and none", root.ID, len(root.Children), root.Right)
	}
	tr.processShrink(action{kind: actShrink, origID: root.ID, origEpoch: root.Epoch - 1, level: 1})
	if tr.Stats().Shrinks != 0 || tr.Height() != 1 {
		t.Fatal("a shrink remembered against an earlier incarnation removed the root")
	}
	tr.processShrink(action{kind: actShrink, origID: root.ID, origEpoch: root.Epoch, level: 1})
	if tr.Stats().Shrinks != 1 || tr.Height() != 0 {
		t.Fatal("the root's own shrink did not run")
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
	if !covers(tr, leaf2, k) {
		t.Fatal("re-latched leaf does not cover the key")
	}
	tr.unlatchUnpin(leaf2, latch.Shared, false)

	// D_X changed: re-latch must fail (transaction would abort).
	tr.dx.v.Add(1)
	if _, _, err := tr.relatch(path, k, dx, latch.Shared, false); !errors.Is(err, errDeleteState) {
		t.Fatalf("re-latch with stale D_X: %v", err)
	}
}

// TestRelatchStaleParentIncarnation: a remembered parent-of-leaf whose page
// now holds another incarnation must not be re-latched, even with D_X
// unchanged; the caller then aborts or re-traverses.
func TestRelatchStaleParentIncarnation(t *testing.T) {
	tr := buildFigureTree(t)
	dx := tr.DX()
	k := key(150)
	leaf, path, err := tr.traverse(traverseOpts{key: k, intent: latch.Shared, dx: dx}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.unlatchUnpin(leaf, latch.Shared, false)
	path[len(path)-1].epoch-- // an earlier incarnation of the parent's page
	if _, _, err := tr.relatch(path, k, dx, latch.Shared, false); !errors.Is(err, errDeleteState) {
		t.Fatalf("re-latch through a stale parent incarnation: %v", err)
	}
	mustVerify(t, tr)
}

// covers reports whether key falls in n's key space [Low, High).
func covers(tr *Tree, n *node, key []byte) bool {
	return tr.compare(key, n.c().Low) >= 0 && !n.pastHigh(tr, key)
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
	if !covers(tr, leaf2, k) {
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

// TestStaleRootLevelPostOverRecycledPage is the deterministic form of a
// corruption the concurrent hot-key test found. A posting discovered while
// the split node was at root level remembers no parent, hence no D_D. If it
// runs late — after another discovery of the same split posted the new
// node, the node was consolidated away and its page reused by a later split
// — it used to insert its old separator over the page's new tenant
// (`index term != child low`). It must be abandoned instead, whether the
// tree is by then taller or has shrunk back to the same root.
func TestStaleRootLevelPostOverRecycledPage(t *testing.T) {
	for _, shrinkBack := range []bool{false, true} {
		tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4})
		fill := func(format string) action {
			t.Helper()
			splits := tr.Stats().Splits
			for i := 0; tr.Stats().Splits == splits; i++ {
				if err := tr.Put([]byte(fmt.Sprintf(format, i)), valb(i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, a := range takeQueuedActions(tr) {
				if a.kind == actPost {
					return a
				}
			}
			t.Fatal("split produced no post action")
			return action{}
		}
		// The root leaf splits; a side traversal discovers the same posting
		// again, and that copy is delayed.
		first := fill("m-%06d")
		if first.parent.id != 0 {
			t.Fatalf("root-level split remembered parent %d", first.parent.id)
		}
		stale := first
		tr.processPost(first) // grows the root
		if tr.Height() != 1 {
			t.Fatalf("height %d after the first post", tr.Height())
		}
		// Empty the new node: it is consolidated into the old root leaf and
		// its page freed.
		gone, err := tr.NodeSnapshot(stale.newID)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range gone.Keys {
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		if !shrinkBack {
			// Keep the grown root: consolidate only.
			for _, a := range takeQueuedActions(tr) {
				if a.kind == actDelete {
					tr.processDelete(a)
				}
			}
		} else {
			// Drain the consolidation; the next latched descent sees a root
			// with one child and has it shrunk away.
			tr.DrainTodo()
			if err := tr.Put([]byte("m-"), valb(0)); err != nil {
				t.Fatal(err)
			}
			mustVerify(t, tr)
			if tr.Height() != 0 || tr.RootID() != stale.origID {
				t.Fatalf("root %d at height %d, want the old leaf %d back", tr.RootID(), tr.Height(), stale.origID)
			}
		}
		if tr.Stats().LeafConsolidated != 1 {
			t.Fatalf("%d leaf consolidations, want 1", tr.Stats().LeafConsolidated)
		}
		// Taller tree: the old root leaf splits again, lower down, and the
		// freed page comes back as the new right half with another
		// separator. Shrunk tree: the page stays free, and the stale posting
		// finds its split node to be the root again.
		var fresh action
		if !shrinkBack {
			fresh = fill("a-%06d")
			if fresh.newID != stale.newID || bytes.Equal(fresh.sep, stale.sep) {
				t.Fatalf("second split made page %d at %q; the scenario needs page %d at a separator other than %q",
					fresh.newID, fresh.sep, stale.newID, stale.sep)
			}
		}

		aborts := tr.Stats().PostsAbortID
		tr.processPost(stale)
		if got := tr.Stats().PostsAbortID; got != aborts+1 {
			t.Fatalf("shrinkBack=%v: stale posting not abandoned (%d identity aborts, want %d)", shrinkBack, got, aborts+1)
		}
		if shrinkBack {
			mustVerify(t, tr)
			continue
		}
		tr.processPost(fresh)
		mustVerify(t, tr)
	}
}

// TestTraverseRejectsReusedRootPage: traverse reads the anchor before it
// latches the root, and a root shrunk away in between has its page reused.
// Whatever now lives under the remembered ID must not be taken for the root:
// a leaf there, met with the Shared latch chosen for an index root, used to
// be returned to the writer as its exclusively latched target (found by
// TestConcurrentGrowShrinkCycles at GOMAXPROCS=4 as `Release(Exclusive) with
// no exclusive holder`), and a node that is not leftmost on its level cannot
// reach the keys to its left. The anchor is made stale through setAnchor, and stays so:
// the descent must keep restarting and give up, not operate on the node.
func TestTraverseRejectsReusedRootPage(t *testing.T) {
	tr := buildFigureTree(t)
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := tr.NodeSnapshot(leaves[1])
	root, level := tr.readAnchor()
	for name, staleLevel := range map[string]uint8{
		"a leaf where an index root was":  level,
		"a leaf that is not the leftmost": 0,
	} {
		// A stale record: the old root's ID and level, over a page that is
		// now the second leaf. The pins taken here are the standing pins
		// setAnchor trades.
		pinned, err := tr.fetch(second.ID)
		if err != nil {
			t.Fatal(err)
		}
		stale := newNode(second.ID, page.Content{Kind: page.Index, Level: staleLevel})
		stale.frame = pinned.frame
		rootNode, err := tr.fetch(root)
		if err != nil {
			t.Fatal(err)
		}
		tr.setAnchor(stale, false)
		err = tr.Put(second.Keys[0], valb(0))
		tr.setAnchor(rootNode, false)
		if err == nil || !strings.Contains(err.Error(), "live-locked") {
			t.Fatalf("%s: Put = %v, want the traversal to give up", name, err)
		}
		mustVerify(t, tr)
	}
}

// TestFetchSame: a remembered reference is re-found only while it names the
// live incarnation it was taken from, in every latch mode; a refusal leaves
// no pin and no latch behind.
func TestFetchSame(t *testing.T) {
	tr := buildFigureTree(t)
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := tr.NodeSnapshot(leaves[1])
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr.fetch(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	tr.unpin(n) // n stays resident: the pool holds the whole tree
	live := ref{id: info.ID, epoch: info.Epoch}
	cases := []struct {
		name string
		r    ref
		dead bool
		want bool
	}{
		{"live", live, false, true},
		{"dead", live, true, false},
		{"other epoch", ref{id: live.id, epoch: live.epoch + 1}, false, false},
		{"fetch error", ref{id: 1 << 40, epoch: live.epoch}, false, false},
	}
	for _, m := range []latch.Mode{latch.Shared, latch.Update, latch.Exclusive} {
		for _, c := range cases {
			s := n.edit()
			s.dead = c.dead
			n.install(s)
			pinned := tr.PoolStats().Pinned
			got, ok := tr.fetchSame(c.r, m, nil)
			if ok != c.want {
				t.Fatalf("mode %v, %s: fetchSame = %v, want %v", m, c.name, ok, c.want)
			}
			if ok {
				if got != n {
					t.Fatalf("mode %v, %s: fetchSame returned node %d, want %d", m, c.name, got.id, n.id)
				}
				tr.unlatchUnpin(got, m, false)
				continue
			}
			if got := tr.PoolStats().Pinned; got != pinned {
				t.Fatalf("mode %v, %s: %d pinned frames after a refusal, %d before", m, c.name, got, pinned)
			}
			if !n.latch.TryAcquire(latch.Exclusive) {
				t.Fatalf("mode %v, %s: latch still held after a refusal", m, c.name)
			}
			n.latch.Release(latch.Exclusive)
		}
	}
	s := n.edit()
	s.dead = false
	n.install(s)
	mustVerify(t, tr)
}
