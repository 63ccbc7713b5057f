// Package core implements the paper's contribution: a B-link tree with
// simple, robust, highly concurrent node deletion based on delete state
// (Lomet, "Simple, Robust and Highly Concurrent B-trees with Node Deletion",
// ICDE 2004).
//
// The tree is a Pi-tree-style B-link tree: every node carries its key-space
// description (low/high fence keys) and a side pointer whose key space is
// known, so the tree is search-correct even when index terms have not been
// posted. Structure modifications beyond the mandatory first half split are
// lazy: they are enqueued on a volatile to-do queue and simply abandoned if
// the delete state (a global index-delete counter D_X, and a per-parent
// data-delete counter D_D) shows a node delete might have invalidated them.
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"blinktree/internal/buffer"
	"blinktree/internal/latch"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// node is the in-memory form of one tree node. The latch protects every
// field except id, which is immutable. A node must be pinned in the buffer
// pool while latched (pin before latch, unlatch before unpin), so eviction
// can never race with a latch holder.
type node struct {
	latch latch.Latch
	id    page.PageID

	// frame is the buffer-pool frame caching this node, set once by the pool
	// before the node is reachable (SetFrame). A pin holder unpins and marks
	// dirty through it, so neither needs a page-table lookup.
	frame *buffer.Frame

	// dead marks a consolidated node. It is set under the exclusive latch
	// just before deallocation; any latcher that finds it must back off.
	dead bool

	// c is the node's logical content (fences, side pointer, entries, D_D,
	// page LSN). It is mutated in place under the exclusive latch.
	c page.Content

	// raw caches countRaw(): c's marshaled size before fence-prefix
	// compression. Every mutator of c's fences and entries maintains it (the
	// per-record ones by the entry's size, the rest by recounting), so the
	// size checks every operation makes are O(1). Verify recounts.
	raw int

	// hs are the key heads every in-node search of a bytewise tree runs on
	// (heads.go), rebuilt wherever an index node's keys change. Verify
	// recounts them too.
	hs keyHeads

	// route is the immutable routing snapshot of an index node; nil for
	// leaves (leaves are always read under a Shared latch). It is
	// republished whenever the exclusive latch is released, so it is
	// current for a Shared holder, and an optimistic reader validates its
	// currency against the latch version word (see optread.go).
	route atomic.Pointer[route]
}

// route is an immutable snapshot of everything a descent needs from an
// index node: fences, side pointer, separator keys, their heads and child
// addresses, plus the identity (epoch) and delete state (D_D) that a
// traversal path entry remembers. A published route is never mutated; a
// new one replaces it wholesale under the exclusive latch.
//
// The entry arrays are the node's own: an index node's keys, children and
// heads are copy-on-write. Every edit builds new arrays, and each array
// has cap == len (as page.UnmarshalInto builds them), so an append to one
// allocates too; no write reaches an array a route may hold.
type route struct {
	level uint8
	epoch uint64
	dd    uint64
	dead  bool
	size  int // logical (pre-compression) size at publish time (under-utilization check)

	low, high []byte
	right     page.PageID
	keys      [][]byte
	hs        keyHeads
	children  []page.PageID
}

// publishRoute installs a fresh routing snapshot, sharing the node's entry
// arrays. The caller must hold the node's exclusive latch, or own the node
// privately (creation, load) so no concurrent reader exists yet. Leaves
// publish nothing.
func (n *node) publishRoute() {
	if n.isLeaf() {
		return
	}
	n.route.Store(&route{
		level:    n.c.Level,
		epoch:    n.c.Epoch,
		dd:       n.c.DD,
		dead:     n.dead,
		size:     n.logicalSize(),
		low:      n.c.Low,
		high:     n.c.High,
		right:    n.c.Right,
		keys:     n.c.Keys,
		hs:       n.hs,
		children: n.c.Children,
	})
}

// newNode wraps fresh content.
func newNode(id page.PageID, c page.Content) *node {
	c.ID = id
	n := &node{id: id, c: c}
	n.raw = n.countRaw()
	n.hs.rebuild(c.Keys)
	return n
}

// keys returns n's keys: an index node's separators, or views of a leaf's
// record keys in a slice of their own.
func (n *node) keys() [][]byte {
	if !n.isLeaf() {
		return n.c.Keys
	}
	keys := make([][]byte, n.c.Recs.Len())
	for i := range keys {
		keys[i] = n.c.Recs.Key(i)
	}
	return keys
}

// countRaw walks the content for the size raw caches.
func (n *node) countRaw() int { return n.c.Size() + len(n.c.Keys)*n.c.PrefixLen() }

// setHigh replaces the high fence.
func (n *node) setHigh(h []byte) {
	n.raw += len(h) - len(n.c.High)
	n.c.High = h
}

// SetFrame implements buffer.Framed.
func (n *node) SetFrame(f *buffer.Frame) { n.frame = f }

// Recyclable implements buffer.Recycler: a live leaf that no mutator has
// touched since its decode was only read under S or U latch, by readers that
// copy what they keep past the unpin (DESIGN.md §4b).
func (n *node) Recyclable() bool { return !n.dead && n.c.Recs.Untouched() }

// PageLSN implements buffer.Object.
func (n *node) PageLSN() wal.LSN { return wal.LSN(n.c.LSN) }

// Marshal implements buffer.Object.
func (n *node) Marshal(pageSize int) ([]byte, error) {
	return page.Marshal(&n.c, pageSize)
}

// isLeaf reports whether n is a data node.
func (n *node) isLeaf() bool { return n.c.Kind == page.Leaf }

// level returns the node's level; leaves are level 0.
func (n *node) level() uint8 { return n.c.Level }

// pastHigh reports whether key belongs to a right sibling.
func (n *node) pastHigh(t *Tree, key []byte) bool {
	return n.c.High != nil && t.compare(key, n.c.High) >= 0
}

// keySearch returns the index of the first key in keys that is >= key under
// cmp (len(keys) when every key is smaller) and whether it equals key: the
// search of a custom-comparator tree and of the cursors.
func keySearch(cmp Compare, keys [][]byte, key []byte) (int, bool) {
	i := sort.Search(len(keys), func(i int) bool { return cmp(keys[i], key) >= 0 })
	return i, i < len(keys) && cmp(keys[i], key) == 0
}

// searchLeaf returns the position of key in a leaf and whether it is
// present; absent keys return their insertion position.
func (n *node) searchLeaf(t *Tree, key []byte) (int, bool) {
	if t.bytewise {
		return n.c.Recs.Search(nil, key)
	}
	return n.c.Recs.Search(t.cmp, key)
}

// childFor returns the index of the child covering key in an index node.
// The caller must have established key >= Low (keys[0] == Low).
func (n *node) childFor(t *Tree, key []byte) int {
	return (&traverseOpts{key: key}).childIn(t, n.c.Keys, &n.hs)
}

// findChild returns the position of the index entry pointing at child, or
// -1 if absent.
func (n *node) findChild(child page.PageID) int {
	for i, c := range n.c.Children {
		if c == child {
			return i
		}
	}
	return -1
}

// insertLeafAt inserts (key, val) at position i.
func (n *node) insertLeafAt(i int, key, val []byte) {
	n.c.Recs.Insert(i, key, val)
	n.raw += page.EntrySize(page.Leaf, len(key), len(val))
}

// removeLeafAt removes the entry at position i, returning its value.
func (n *node) removeLeafAt(i int) []byte {
	old := n.c.Recs.Val(i)
	n.raw -= page.EntrySize(page.Leaf, len(n.c.Recs.Key(i)), len(old))
	n.c.Recs.Delete(i)
	return old
}

// setLeafVal replaces the value at position i.
func (n *node) setLeafVal(i int, val []byte) {
	n.raw += len(val) - len(n.c.Recs.Val(i))
	n.c.Recs.Set(i, val)
}

// insertIndexTerm inserts the separator key -> child entry in sorted
// position. It reports false if a term with the same key already exists
// (the posting was already done, e.g. re-discovered twice).
func (n *node) insertIndexTerm(t *Tree, key []byte, child page.PageID) bool {
	i, found := t.search(n.c.Keys, &n.hs, key)
	if found {
		return false
	}
	n.setTerms(spliced(n.c.Keys, i, i, append([]byte(nil), key...)), spliced(n.c.Children, i, i, child))
	return true
}

// removeIndexTermAt removes the index entry at position i.
func (n *node) removeIndexTermAt(i int) {
	n.setTerms(spliced(n.c.Keys, i, i+1), spliced(n.c.Children, i, i+1))
}

// setTerms makes keys and children an index node's entries, new arrays of
// cap == len that nothing writes again (see route), and recounts the size
// and the heads for them.
func (n *node) setTerms(keys [][]byte, children []page.PageID) {
	n.c.Keys, n.c.Children = keys, children
	n.raw = n.countRaw()
	n.hs.rebuild(keys)
}

// spliced returns s with s[i:j] replaced by v, in a new array of exactly
// that length.
func spliced[E any](s []E, i, j int, v ...E) []E {
	out := make([]E, 0, len(s)-(j-i)+len(v))
	return append(append(append(out, s[:i]...), v...), s[j:]...)
}

// size returns the marshaled byte size, the occupancy measure.
func (n *node) size() int { return n.raw - len(n.c.Keys)*n.c.PrefixLen() }

// logicalSize is size before fence-prefix compression: the occupancy
// measure for the under-utilization policy. The policy must ignore
// compression — a well-filled index page whose keys share a long fence
// prefix marshals far below the threshold, and consolidating it would only
// force an immediate re-split (and abort postings via D_X churn).
func (n *node) logicalSize() int { return n.raw }

// String renders a debug description; used by blinkdump and tests.
func (n *node) String() string {
	return fmt.Sprintf("node %d %s L%d [%q,%q) right=%d keys=%d dd=%d lsn=%d",
		n.id, n.c.Kind, n.c.Level, n.c.Low, highString(n.c.High), n.c.Right,
		len(n.c.Keys)+n.c.Recs.Len(), n.c.DD, n.c.LSN)
}

func highString(h []byte) string {
	if h == nil {
		return "+inf"
	}
	return string(h)
}
