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
	"bytes"
	"fmt"
	"sync/atomic"

	"blinktree/internal/buffer"
	"blinktree/internal/latch"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// node is the in-memory form of one tree node. The latch guards its state
// and page LSN; id is immutable. A node must be pinned in the buffer pool
// while latched (pin before latch, unlatch before unpin), so eviction can
// never race with a latch holder.
type node struct {
	latch latch.Latch
	id    page.PageID

	// frame is the buffer-pool frame caching this node, set once by the pool
	// before the node is reachable (SetFrame). A pin holder unpins and marks
	// dirty through it, so neither needs a page-table lookup.
	frame *buffer.Frame

	// lsn is the page LSN, stamped under the exclusive latch by each logged
	// change. The pool's write-back and redo read it, and no descent does,
	// so it stays out of the state a descent reads.
	lsn uint64

	// s is the node's state (c). A leaf's is its own, edited in place under
	// the exclusive latch. An index node's is the snapshot both descents
	// read: never written once installed, it is replaced by each change
	// (edit, install), so a latch-free reader holds one version of the node
	// and validates it against the latch's version word (optread.go). A
	// node born X-latched (allocNode) is private until that latch's release.
	s atomic.Pointer[state]

	// first is the state newNode installs, in the node's allocation: a
	// leaf's for good, an index node's until its first change.
	first state
}

// state is a node's content with what the tree keeps beside it.
type state struct {
	// raw caches countRaw(): the content's marshaled size before
	// fence-prefix compression, the under-utilization policy's measure (a
	// well-filled index page whose keys share a long fence prefix marshals
	// far below the threshold; consolidating it would force a re-split).
	// The leaf record operations maintain it by the entry's size, every
	// other edit recounts it. Verify recounts.
	raw int

	// dead marks a consolidated node. It is set under the exclusive latch
	// just before deallocation; any latcher that finds it must back off.
	dead bool

	page.Content
}

// c returns n's state. Under n's latch in any mode nobody writes it
// meanwhile; a latch-free reader may hold an index node's, and validates
// what it read (optread.go).
func (n *node) c() *state { return n.s.Load() }

// edit returns the state a change to n writes under n's exclusive latch: a
// leaf's own, or a copy of an index node's, which n takes on at install.
func (n *node) edit() *state {
	s := n.c()
	if s.Kind == page.Leaf {
		return s
	}
	c := *s
	return &c
}

// install makes s, from edit, n's state.
func (n *node) install(s *state) { n.s.Store(s) }

// kill marks n consolidated, under its exclusive latch.
func (n *node) kill() {
	s := n.edit()
	s.dead = true
	n.install(s)
}

// countRaw walks the content for the size raw caches.
func (s *state) countRaw() int { return s.Size() + s.Recs.Len()*s.PrefixLen() }

// newNode wraps fresh content, moving entries built in Keys form into Recs.
func newNode(id page.PageID, c page.Content) *node {
	c.ID = id
	if c.Keys != nil {
		c.Pack()
	}
	n := &node{id: id, lsn: c.LSN, first: state{Content: c}}
	n.first.LSN = 0 // n.lsn is the page LSN
	n.first.raw = n.first.countRaw()
	n.install(&n.first)
	return n
}

// SetFrame implements buffer.Framed.
func (n *node) SetFrame(f *buffer.Frame) { n.frame = f }

// Recyclable implements buffer.Recycler: a live leaf that no mutator has
// touched since its decode was only read under S or U latch, by readers that
// copy what they keep past the unpin (DESIGN.md §4b). An index node never
// is: a latch-free reader may still hold a snapshot of its entries.
func (n *node) Recyclable() bool {
	s := n.c()
	return s.Kind == page.Leaf && !s.dead && s.Recs.Untouched()
}

// PageLSN implements buffer.Object.
func (n *node) PageLSN() wal.LSN { return wal.LSN(n.lsn) }

// Marshal implements buffer.Object.
func (n *node) Marshal(pageSize int) ([]byte, error) {
	c := n.c().Content
	c.LSN = n.lsn
	return page.Marshal(&c, pageSize)
}

// isLeaf reports whether n is a data node.
func (n *node) isLeaf() bool { return n.c().Kind == page.Leaf }

// level returns the node's level; leaves are level 0.
func (n *node) level() uint8 { return n.c().Level }

// pastHigh reports whether key belongs to a right sibling.
func (n *node) pastHigh(t *Tree, key []byte) bool {
	h := n.c().High
	return h != nil && t.compare(key, h) >= 0
}

// search is every in-node search, of a leaf or an index node: the position
// of the first entry of r whose key is >= key and whether that key equals
// key. A bytewise tree searches on the slots' key heads (DESIGN.md §4b,
// "In-node search"), a custom-comparator tree through its comparator.
func (t *Tree) search(r *page.Records, key []byte) (int, bool) {
	if t.bytewise {
		return r.Search(nil, key)
	}
	return r.Search(t.cmp, key)
}

// compare orders two keys, calling bytes.Compare directly when that is the
// tree's order.
func (t *Tree) compare(a, b []byte) int {
	if t.bytewise {
		return bytes.Compare(a, b)
	}
	return t.cmp(a, b)
}

// findChild returns the position of the index entry pointing at child, or
// -1 if absent.
func (n *node) findChild(child page.PageID) int {
	r := &n.c().Recs
	for i := range r.Len() {
		if r.Child(i) == child {
			return i
		}
	}
	return -1
}

// insertLeafAt inserts (key, val) at position i.
func (n *node) insertLeafAt(i int, key, val []byte) {
	s := n.c()
	s.Recs.Insert(i, key, val)
	s.raw += page.EntrySize(page.Leaf, len(key), len(val))
}

// removeLeafAt removes the entry at position i, returning its value.
func (n *node) removeLeafAt(i int) []byte {
	s := n.c()
	old := s.Recs.Val(i)
	s.raw -= page.EntrySize(page.Leaf, len(s.Recs.Key(i)), len(old))
	s.Recs.Delete(i)
	return old
}

// setLeafVal replaces the value at position i.
func (n *node) setLeafVal(i int, val []byte) {
	s := n.c()
	s.raw += len(val) - len(s.Recs.Val(i))
	s.Recs.Set(i, val)
}

// insertIndexTerm inserts the separator key -> child entry in sorted
// position. It reports false if a term with the same key already exists
// (the posting was already done, e.g. re-discovered twice).
func (n *node) insertIndexTerm(t *Tree, key []byte, child page.PageID) bool {
	i, found := t.search(&n.c().Recs, key)
	if found {
		return false
	}
	s := n.edit()
	s.Recs.InsertChild(i, key, child)
	s.raw = s.countRaw()
	n.install(s)
	return true
}

// removeIndexTermAt removes the index entry at position i.
func (n *node) removeIndexTermAt(i int) {
	s := n.edit()
	s.Recs.Delete(i)
	s.raw = s.countRaw()
	n.install(s)
}

// size returns the marshaled byte size, the occupancy measure.
func (n *node) size() int { return n.c().Size() }

// String renders a debug description; used by blinkdump and tests.
func (n *node) String() string {
	return fmt.Sprintf("node %d %s L%d [%q,%q) right=%d keys=%d dd=%d lsn=%d",
		n.id, n.c().Kind, n.c().Level, n.c().Low, highString(n.c().High), n.c().Right,
		n.c().Recs.Len(), n.c().DD, n.lsn)
}

func highString(h []byte) string {
	if h == nil {
		return "+inf"
	}
	return string(h)
}
