package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"blinktree/internal/latch"
	"blinktree/internal/page"
)

// routeImage is a deep copy of what a route routes by.
type routeImage struct {
	keys     [][]byte
	children []page.PageID
	hs       keyHeads
}

func imageOf(r *route) routeImage {
	keys := make([][]byte, len(r.keys))
	for i, k := range r.keys {
		keys[i] = bytes.Clone(k)
	}
	return routeImage{keys, slices.Clone(r.children), keyHeads{pfx: r.hs.pfx, h: slices.Clone(r.hs.h)}}
}

func (im routeImage) matches(r *route) bool {
	return slices.EqualFunc(im.keys, r.keys, bytes.Equal) && slices.Equal(im.children, r.children) &&
		im.hs.pfx == r.hs.pfx && slices.Equal(im.hs.h, r.hs.h)
}

// TestRoutesSurviveIndexEdits: a route shares its index node's key, child
// and head arrays, so no edit of the node may write one. One node goes
// through each index edit — a posting, a term removal, a split and a
// consolidation into it — and after every edit each route loaded from it so
// far must still hold what it held when it was loaded, while the node's own
// arrays keep cap == len.
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
	current := func() *node {
		n, err := tr.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		tr.unpin(n)
		return n
	}
	var routes []*route
	var images []routeImage
	load := func() {
		r := current().route.Load()
		routes, images = append(routes, r), append(images, imageOf(r))
	}
	check := func(edit string) {
		t.Helper()
		for i, r := range routes {
			if !images[i].matches(r) {
				t.Fatalf("after the %s, the route loaded before edit %d no longer holds what it held", edit, i)
			}
		}
		n := current()
		if cap(n.c.Keys) != len(n.c.Keys) || cap(n.c.Children) != len(n.c.Children) || cap(n.hs.h) != len(n.hs.h) {
			t.Fatalf("after the %s, node %d holds an array with spare capacity", edit, id)
		}
	}
	edit := func(name string, fn func(n *node)) {
		t.Helper()
		load()
		n, err := tr.pinLatch(id, latch.Exclusive)
		if err != nil {
			t.Fatal(err)
		}
		fn(n)
		tr.unlatchUnpin(n, latch.Exclusive, true)
		check(name)
	}

	var sep []byte
	edit("posting", func(n *node) {
		sep = append(bytes.Clone(n.c.Keys[1]), 0)
		if !n.insertIndexTerm(tr, sep, ^page.PageID(0)) {
			t.Fatalf("posting %q refused", sep)
		}
	})
	edit("term removal", func(n *node) {
		i, found := tr.search(n.c.Keys, &n.hs, sep)
		if !found {
			t.Fatalf("posted term %q missing", sep)
		}
		n.removeIndexTermAt(i)
	})
	var right page.PageID
	edit("split", func(n *node) {
		if err := tr.splitLocked(n, ref{}, 0, tr.DX()); err != nil {
			t.Fatal(err)
		}
		right = n.c.Right
	})

	// Post the new half's term, then consolidate the half back into the node.
	tr.DrainTodo()
	load()
	q, err := tr.fetch(right)
	if err != nil {
		t.Fatal(err)
	}
	a := action{kind: actDelete, level: 1, origID: right, origEpoch: q.c.Epoch, sep: bytes.Clone(q.c.Low), dx: tr.DX()}
	tr.unpin(q)
	before := tr.Stats().IndexConsolidated
	tr.processDelete(a)
	if tr.Stats().IndexConsolidated != before+1 || current().c.Right == right {
		t.Fatalf("the split's right half %d was not consolidated back into node %d", right, id)
	}
	check("consolidation")
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

// TestIndexRouteAllocs pins what an index node's route costs on a 150-term
// node: publishing shares the entry arrays and allocates only the route's
// header. An exclusive release of an unchanged node allocates that header
// alone; a posting, the term's key, the new key, child and head arrays and
// the header; a decode, the node, its arrays, its heads and the header.
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
	if allocs, bytes := allocsOf(100, func() {}, release); allocs != 1 {
		t.Errorf("exclusive release of an unchanged index node: %d allocs, %d B; want 1 (the route header)", allocs, bytes)
	}

	const child = 9999
	sep := key(15)
	post := xedit(func(m *node) { m.insertIndexTerm(tr, sep, child) })
	unpost := xedit(func(m *node) { m.removeIndexTermAt(m.findChild(child)) })
	post() // each measured posting follows the removal of the one before
	allocs, bytes := allocsOf(100, unpost, post)
	if allocs != 5 || bytes > 6848 {
		t.Errorf("posting into a 150-term index node: %d allocs, %d B; want 5 allocs (key, keys, children, heads, route) and <= 6848 B", allocs, bytes)
	}

	image, err := page.Marshal(&n.c, tr.opts.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() { codec{tr}.Unmarshal(image) }
	if allocs, bytes := allocsOf(100, func() {}, decode); allocs != 6 {
		t.Errorf("decoding a 150-term index page: %d allocs, %d B; want 6", allocs, bytes)
	}
}

// TestOptReadDeadRouteRestarts stages an optimistic reader pinned on an
// index node that is consolidated before the reader reads its route, and
// the page of the child that route names for the key freed and reissued as
// a leaf further left. The route's dead test restarts the descent. Without
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
	parent, left, nid := ref{id: p.id, epoch: p.c.Epoch}, p.c.Children[0], p.c.Children[1]
	tr.unpin(p)

	// The reader's pin on the node, taken as its step from the parent would.
	n, err := tr.fetch(nid)
	if err != nil {
		t.Fatal(err)
	}
	r := n.route.Load()
	k, child := bytes.Clone(r.keys[1]), r.children[1]

	stats := tr.Stats()
	tr.processDelete(action{kind: actDelete, level: 1, origID: nid, origEpoch: r.epoch, sep: bytes.Clone(r.low), parent: parent, dx: tr.DX()})
	l, err := tr.fetch(left)
	if err != nil {
		t.Fatal(err)
	}
	leftRef := ref{id: l.id, epoch: l.c.Epoch}
	tr.unpin(l)
	c, err := tr.fetch(child)
	if err != nil {
		t.Fatal(err)
	}
	ca := action{kind: actDelete, level: 0, origID: child, origEpoch: c.c.Epoch, sep: bytes.Clone(c.c.Low), parent: leftRef, dx: tr.DX()}
	tr.unpin(c)
	tr.processDelete(ca)
	if got := tr.Stats(); !n.route.Load().dead || got.IndexConsolidated != stats.IndexConsolidated+1 || got.LeafConsolidated != stats.LeafConsolidated+1 {
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
	reissued := c.isLeaf() && !c.dead && bytes.Compare(c.c.Low, k) < 0 && c.c.High != nil && bytes.Compare(c.c.High, k) <= 0
	tr.unpin(c)
	if !reissued {
		t.Fatalf("scenario: page %d was not reissued as a leaf left of %s", child, k)
	}

	a := &anchorRec{id: nid, level: 1} // no node: n is the reader's own pin
	var pb pathBuf
	leaf, _, ok := tr.traverseOptFrom(a, n, traverseOpts{key: k, intent: latch.Shared, dx: tr.DX()}, pb[:0])
	if ok {
		covers := bytes.Compare(leaf.c.Low, k) <= 0 && (leaf.c.High == nil || bytes.Compare(k, leaf.c.High) < 0)
		tr.unlatchUnpin(leaf, latch.Shared, false)
		t.Fatalf("a descent through consolidated node %d validated and reached leaf %d (covering %s: %v); its dead route must restart it", nid, leaf.id, k, covers)
	}
	mustVerify(t, tr)
}
