package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"blinktree/internal/latch"
	"blinktree/internal/page"
)

// snapImage is a deep copy of what an index node's snapshot holds: its
// header, its entries, and its slots with their key heads and prefix.
type snapImage struct {
	level     uint8
	epoch, dd uint64
	dead      bool
	raw       int
	low, high []byte
	right     page.PageID
	keys      [][]byte
	children  []page.PageID
	slots     []uint64
	pfx       []byte
}

func imageOf(s *state) snapImage {
	im := snapImage{
		level: s.Level, epoch: s.Epoch, dd: s.DD, dead: s.dead, raw: s.raw,
		low: bytes.Clone(s.Low), high: bytes.Clone(s.High), right: s.Right,
	}
	im.slots, im.pfx = slotWords(&s.Recs)
	for i := range s.Recs.Len() {
		im.keys = append(im.keys, bytes.Clone(s.Recs.Key(i)))
		im.children = append(im.children, s.Recs.Child(i))
	}
	return im
}

// TestRoutesSurviveIndexEdits: an index node's snapshot is what both
// descents read, and a latch-free reader may hold one across any change, so
// no change may write one: each installs a new snapshot. One node goes
// through every kind of change — a posting, a term removal, a D_D bump, a
// split and a consolidation into it — and after each, every snapshot loaded
// from it so far must still hold the header, entries, slot words (key heads
// included) and prefix it held when it was loaded, and the current one must
// show the change and search every one of its keys to its slot. The posting
// lands below every key but the first, so it shrinks the node's prefix and
// rewrites every head.
func TestRoutesSurviveIndexEdits(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.6})
	for i := 0; i < 3000; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if _, lvl := tr.readAnchor(); lvl < 2 {
		t.Fatalf("root level %d: a level-1 node needs a parent to be consolidated into", lvl)
	}
	ids, err := tr.LevelNodes(1)
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	current := func() *state {
		n, err := tr.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		tr.unpin(n)
		return n.c()
	}
	var snaps []*state
	var images []snapImage
	load := func() {
		s := current()
		snaps, images = append(snaps, s), append(images, imageOf(s))
	}
	check := func(edit string, changed func(was, now snapImage) bool) {
		t.Helper()
		for i, s := range snaps {
			if !reflect.DeepEqual(images[i], imageOf(s)) {
				t.Fatalf("after the %s, the snapshot loaded before change %d no longer holds what it held", edit, i)
			}
		}
		cur := current()
		if now := imageOf(cur); !changed(images[len(images)-1], now) {
			t.Fatalf("the %s did not show in node %d's snapshot", edit, id)
		}
		for i := range cur.Recs.Len() {
			if j, found := tr.search(&cur.Recs, cur.Recs.Key(i)); j != i || !found {
				t.Fatalf("after the %s, key %d of node %d searches to %d, %v", edit, i, id, j, found)
			}
		}
	}
	edit := func(name string, fn func(n *node), changed func(was, now snapImage) bool) {
		t.Helper()
		load()
		n, err := tr.pinLatch(id, latch.Exclusive)
		if err != nil {
			t.Fatal(err)
		}
		fn(n)
		tr.unlatchUnpin(n, latch.Exclusive, true)
		check(name, changed)
	}
	terms := func(was, now snapImage) int { return len(now.keys) - len(was.keys) }

	var sep []byte
	edit("posting", func(n *node) {
		if len(n.c().Low) != 0 {
			t.Fatalf("leftmost node %d has low fence %q", id, n.c().Low)
		}
		sep = []byte{n.c().Recs.Key(1)[0] - 1}
		if !n.insertIndexTerm(tr, sep, ^page.PageID(0)) {
			t.Fatalf("posting %q refused", sep)
		}
	}, func(was, now snapImage) bool { return terms(was, now) == 1 && len(now.pfx) < len(was.pfx) })
	edit("term removal", func(n *node) {
		i, found := tr.search(&n.c().Recs, sep)
		if !found {
			t.Fatalf("posted term %q missing", sep)
		}
		n.removeIndexTermAt(i)
	}, func(was, now snapImage) bool { return terms(was, now) == -1 })
	edit("D_D bump", func(n *node) {
		s := n.edit() // as accessParent does
		s.DD++
		n.install(s)
	}, func(was, now snapImage) bool { return now.dd == was.dd+1 })
	var right page.PageID
	edit("split", func(n *node) {
		if err := tr.splitLocked(n, ref{}, 0, tr.DX()); err != nil {
			t.Fatal(err)
		}
		right = n.c().Right
	}, func(was, now snapImage) bool { return terms(was, now) < 0 && now.right != was.right })

	// Post the new half's term, then consolidate the half back into the node.
	tr.DrainTodo()
	load()
	q, err := tr.fetch(right)
	if err != nil {
		t.Fatal(err)
	}
	a := action{kind: actDelete, level: 1, origID: right, origEpoch: q.c().Epoch, sep: bytes.Clone(q.c().Low), dx: tr.DX()}
	tr.unpin(q)
	before := tr.Stats().IndexConsolidated
	tr.processDelete(a)
	if tr.Stats().IndexConsolidated != before+1 {
		t.Fatalf("the split's right half %d was not consolidated back into node %d", right, id)
	}
	check("consolidation", func(was, now snapImage) bool { return terms(was, now) > 0 && now.right != right })
	if !q.c().dead {
		t.Fatalf("the consolidated half %d is not dead", right)
	}
	mustVerify(t, tr)
}

// allocsOf runs setup and then f, runs times, and returns the allocations
// and bytes f made on average. Unlike testing.AllocsPerRun it leaves setup
// out of the count.
func allocsOf(runs int, setup, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	return allocs / uint64(runs), bytes / uint64(runs)
}

// TestIndexRouteAllocs pins what an index node's snapshot costs on a
// 150-term node. An exclusive release publishes nothing, so releasing an
// unchanged node allocates nothing; a posting allocates the new snapshot and
// its slot array, key heads included (and, now and then, a larger buffer for
// the entries); a decode, the node with its first snapshot and its slot
// array, the entries staying in the image.
func TestIndexRouteAllocs(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 4096})
	keys, kids := make([][]byte, 150), make([]page.PageID, 150)
	for i := range keys {
		keys[i], kids[i] = key(10*i), page.PageID(1000+i)
	}
	keys[0] = []byte{}
	n, err := tr.allocNode(page.Content{Kind: page.Index, Level: 1, Low: []byte{}, Keys: keys, Children: kids})
	if err != nil {
		t.Fatal(err)
	}
	tr.unlatchUnpin(n, latch.Exclusive, true)
	xedit := func(fn func(n *node)) func() {
		return func() {
			m, err := tr.pinLatch(n.id, latch.Exclusive)
			if err != nil {
				t.Fatal(err)
			}
			fn(m)
			tr.unlatchUnpin(m, latch.Exclusive, true)
		}
	}

	release := xedit(func(*node) {})
	allocs, bytes := allocsOf(100, func() {}, release)
	t.Logf("exclusive release of an unchanged index node: %d allocs, %d B", allocs, bytes)
	if allocs != 0 {
		t.Errorf("exclusive release of an unchanged index node: %d allocs, %d B; want 0", allocs, bytes)
	}

	const child = 9999
	sep := key(15)
	post := xedit(func(m *node) { m.insertIndexTerm(tr, sep, child) })
	unpost := xedit(func(m *node) { m.removeIndexTermAt(m.findChild(child)) })
	post() // each measured posting follows the removal of the one before
	allocs, bytes = allocsOf(100, unpost, post)
	t.Logf("posting: %d allocs, %d B", allocs, bytes)
	if allocs > 5 || bytes > 6848 {
		t.Errorf("posting into a 150-term index node: %d allocs, %d B; want <= 5 and <= 6848 B", allocs, bytes)
	}

	image, err := n.Marshal(tr.opts.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() { codec{tr}.Unmarshal(image) }
	allocs, bytes = allocsOf(100, func() {}, decode)
	t.Logf("decode: %d allocs, %d B", allocs, bytes)
	if allocs > 2 || bytes > 1696 {
		t.Errorf("decoding a 150-term index page: %d allocs, %d B; want <= 2 and <= 1696 B", allocs, bytes)
	}
}

// TestOptStepValidatesNonRootVersion: an optimistic step from an index node
// below the root must fail once the node has been changed under its
// exclusive latch since the step's version was read — optValid's version
// check, the only guard for a non-root node (the anchor check covers the
// root alone).
func TestOptStepValidatesNonRootVersion(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	for i := 0; i < 3000; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if _, lvl := tr.readAnchor(); lvl < 2 {
		t.Fatalf("root level %d: the level-1 node must not be the root", lvl)
	}
	ids, err := tr.LevelNodes(1)
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	a := tr.anchor.Load()
	step := func(change func(n *node)) bool {
		t.Helper()
		n, err := tr.fetch(id) // the reader's pin, as its step from the parent takes
		if err != nil {
			t.Fatal(err)
		}
		v, ok := n.latch.OptVersion()
		s := n.c()
		if !ok {
			t.Fatalf("node %d is latched exclusively", id)
		}
		if change != nil {
			m, err := tr.pinLatch(id, latch.Exclusive)
			if err != nil {
				t.Fatal(err)
			}
			change(m)
			tr.unlatchUnpin(m, latch.Exclusive, true)
		}
		next, ok := tr.optStep(a, n, v, s.Recs.Child(0), nil)
		if ok {
			tr.unpin(next)
		}
		return ok
	}
	if !step(nil) {
		t.Fatal("a step from a node nobody latched failed to validate")
	}
	const child = 9999
	sep := key(1)
	if step(func(m *node) {
		if !m.insertIndexTerm(tr, sep, child) {
			t.Fatalf("posting %q refused", sep)
		}
	}) {
		t.Fatal("a step from a node changed since its version was read validated")
	}
	m, err := tr.pinLatch(id, latch.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	m.removeIndexTermAt(m.findChild(child))
	tr.unlatchUnpin(m, latch.Exclusive, true)
	mustVerify(t, tr)
}

// TestOptReadDeadRouteRestarts stages an optimistic reader pinned on an
// index node that is consolidated before the reader reads its snapshot, and
// the page of the child that snapshot names for the key freed and reissued
// as a leaf further left. The snapshot's dead test restarts the descent. Without
// it the answer is still right, and the failure message says so: the
// version check passes (nothing latched the node since), and the descent
// lands on the reissued leaf, whose low fence the key reaches, then side
// steps right to the leaf covering the key. The leaf-level checks, not the
// dead test, make the answer correct; the dead test saves the walk.
func TestOptReadDeadRouteRestarts(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.6})
	i := 0
	if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		i++
		return key(2 * i), valb(2 * i), i <= 4000
	}, 0.4); err != nil {
		t.Fatal(err)
	}
	if _, lvl := tr.readAnchor(); lvl < 2 {
		t.Fatalf("root level %d: the staged node needs a parent", lvl)
	}
	pids, err := tr.LevelNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.fetch(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	parent, left, nid := ref{id: p.id, epoch: p.c().Epoch}, p.c().Recs.Child(0), p.c().Recs.Child(1)
	tr.unpin(p)

	// The reader's pin on the node, taken as its step from the parent would.
	n, err := tr.fetch(nid)
	if err != nil {
		t.Fatal(err)
	}
	s := n.c()
	k, child := bytes.Clone(s.Recs.Key(1)), s.Recs.Child(1)

	stats := tr.Stats()
	tr.processDelete(action{kind: actDelete, level: 1, origID: nid, origEpoch: s.Epoch, sep: bytes.Clone(s.Low), parent: parent, dx: tr.DX()})
	l, err := tr.fetch(left)
	if err != nil {
		t.Fatal(err)
	}
	leftRef := ref{id: l.id, epoch: l.c().Epoch}
	tr.unpin(l)
	c, err := tr.fetch(child)
	if err != nil {
		t.Fatal(err)
	}
	ca := action{kind: actDelete, level: 0, origID: child, origEpoch: c.c().Epoch, sep: bytes.Clone(c.c().Low), parent: leftRef, dx: tr.DX()}
	tr.unpin(c)
	tr.processDelete(ca)
	if got := tr.Stats(); !n.c().dead || got.IndexConsolidated != stats.IndexConsolidated+1 || got.LeafConsolidated != stats.LeafConsolidated+1 {
		t.Fatalf("scenario: node %d and then its child %d must be consolidated", nid, child)
	}

	// Fill the first leaf until it splits; the split takes the freed page.
	for j := 0; tr.Stats().Splits == stats.Splits; j++ {
		if err := tr.Put(append(key(1), byte(j)), nil); err != nil {
			t.Fatal(err)
		}
	}
	c, err = tr.fetch(child)
	if err != nil {
		t.Fatal(err)
	}
	cs := c.c()
	reissued := c.isLeaf() && !cs.dead && bytes.Compare(cs.Low, k) < 0 && cs.High != nil && bytes.Compare(cs.High, k) <= 0
	tr.unpin(c)
	if !reissued {
		t.Fatalf("scenario: page %d was not reissued as a leaf left of %s", child, k)
	}

	a := &anchorRec{id: nid, level: 1} // no node: n is the reader's own pin
	var pb pathBuf
	leaf, _, ok := tr.traverseOptFrom(a, n, traverseOpts{key: k, intent: latch.Shared, dx: tr.DX()}, pb[:0])
	if ok {
		ls := leaf.c()
		covers := bytes.Compare(ls.Low, k) <= 0 && (ls.High == nil || bytes.Compare(k, ls.High) < 0)
		tr.unlatchUnpin(leaf, latch.Shared, false)
		t.Fatalf("a descent through consolidated node %d validated and reached leaf %d (covering %s: %v); its dead snapshot must restart it", nid, leaf.id, k, covers)
	}
	mustVerify(t, tr)
}
