package core

import (
	"bytes"
	"fmt"

	"blinktree/internal/page"
)

// Verify checks the structural invariants of the tree. It must be called on
// a quiescent tree (no concurrent operations); tests call it after draining
// the to-do queue. It returns the first violation found.
//
// Invariants checked, per level from the root down:
//
//   - fence sanity: Low < High (unless High is +inf); keys lie in [Low, High)
//     and are strictly sorted;
//   - side chain: each node's High equals its right sibling's Low, the
//     leftmost node's Low is -inf, the rightmost node's High is +inf;
//   - index nodes: keys[0] == Low, one child per key, every child is one
//     level down, alive, and its Low equals its index term's key;
//   - size: every node's serialized size fits the page;
//   - reachability: every node at each level is reached by the side chain
//     from the leftmost node (so no orphans within a level), and child
//     links only point into the next level's chain;
//   - leaf records across the whole leaf chain are strictly sorted.
func (t *Tree) Verify() error {
	rootID, rootLevel := t.readAnchor()
	leftmost := rootID
	for lvl := int(rootLevel); lvl >= 0; lvl-- {
		nodes, err := t.verifyLevel(leftmost, uint8(lvl))
		if err != nil {
			return err
		}
		if lvl > 0 {
			// Descend to the next level's leftmost node.
			first, err := t.fetch(leftmost)
			if err != nil {
				return fmt.Errorf("verify: fetch leftmost %d: %w", leftmost, err)
			}
			if first.c().Recs.Len() == 0 {
				t.unpin(first)
				return fmt.Errorf("verify: index node %d at level %d has no children", first.id, lvl)
			}
			next := first.c().Recs.Child(0)
			t.unpin(first)
			// Verify child links of the whole level point into the chain
			// one level down (checked inside verifyLevel via child.Low).
			leftmost = next
		}
		_ = nodes
	}
	return t.verifyLeafOrder()
}

// verifyLevel walks one level's side chain, checking per-node and chain
// invariants, and returns the visited node IDs.
func (t *Tree) verifyLevel(start page.PageID, lvl uint8) ([]page.PageID, error) {
	var ids []page.PageID
	var prevHigh []byte
	id := start
	first := true
	for id != 0 {
		n, err := t.fetch(id)
		if err != nil {
			return nil, fmt.Errorf("verify: level %d fetch %d: %w", lvl, id, err)
		}
		if n.c().dead {
			t.unpin(n)
			return nil, fmt.Errorf("verify: dead node %d reachable at level %d", id, lvl)
		}
		if n.level() != lvl {
			t.unpin(n)
			return nil, fmt.Errorf("verify: node %d has level %d, expected %d", id, n.level(), lvl)
		}
		if first {
			if len(n.c().Low) != 0 {
				t.unpin(n)
				return nil, fmt.Errorf("verify: leftmost node %d at level %d has low %q, want -inf", id, lvl, n.c().Low)
			}
			first = false
		} else if !bytes.Equal(prevHigh, n.c().Low) {
			t.unpin(n)
			return nil, fmt.Errorf("verify: chain gap at level %d: prev high %q != node %d low %q", lvl, prevHigh, id, n.c().Low)
		}
		if err := t.verifyNode(n); err != nil {
			t.unpin(n)
			return nil, err
		}
		ids = append(ids, id)
		prevHigh = n.c().High
		next := n.c().Right
		if n.c().High == nil && next != 0 {
			t.unpin(n)
			return nil, fmt.Errorf("verify: node %d has +inf high but sibling %d", id, next)
		}
		if n.c().High != nil && next == 0 {
			t.unpin(n)
			return nil, fmt.Errorf("verify: node %d has high %q but no sibling", id, n.c().High)
		}
		t.unpin(n)
		id = next
	}
	return ids, nil
}

// verifyNode checks one node's internal invariants.
func (t *Tree) verifyNode(n *node) error {
	s := n.c()
	// Shape checks come first: a node's entries are in Recs only.
	if len(s.Keys)+len(s.Vals)+len(s.Children) > 0 {
		return fmt.Errorf("verify: %s %d has entries outside its records", s.Kind, n.id)
	}
	if want := s.countRaw(); s.raw != want {
		return fmt.Errorf("verify: node %d cached size %d, recount %d", n.id, s.raw, want)
	}
	if n.size() > t.opts.PageSize {
		return fmt.Errorf("verify: node %d size %d exceeds page size %d", n.id, n.size(), t.opts.PageSize)
	}
	if s.High != nil && t.cmp(s.Low, s.High) >= 0 {
		return fmt.Errorf("verify: node %d fences inverted: [%q, %q)", n.id, s.Low, s.High)
	}
	r := &s.Recs
	for i := range r.Len() {
		k := r.Key(i)
		if i > 0 && t.cmp(r.Key(i-1), k) >= 0 {
			return fmt.Errorf("verify: node %d keys out of order at %d", n.id, i)
		}
		if t.cmp(k, s.Low) < 0 {
			return fmt.Errorf("verify: node %d key %q below low fence %q", n.id, k, s.Low)
		}
		if s.High != nil && t.cmp(k, s.High) >= 0 {
			return fmt.Errorf("verify: node %d key %q at/above high fence %q", n.id, k, s.High)
		}
	}
	// The in-node search finds every key in its slot: in a bytewise tree
	// that checks the node's prefix and every head it searches.
	for i := range r.Len() {
		if j, found := t.search(r, r.Key(i)); j != i || !found {
			return fmt.Errorf("verify: node %d key heads stale: key %d searches to %d", n.id, i, j)
		}
	}
	if s.Kind == page.Leaf {
		return nil
	}
	if r.Len() == 0 {
		return fmt.Errorf("verify: index node %d is empty", n.id)
	}
	if !bytes.Equal(r.Key(0), s.Low) {
		return fmt.Errorf("verify: index %d keys[0] %q != low %q", n.id, r.Key(0), s.Low)
	}
	for i := range r.Len() {
		childID := r.Child(i)
		child, err := t.fetch(childID)
		if err != nil {
			return fmt.Errorf("verify: index %d child %d: %w", n.id, childID, err)
		}
		if child.c().dead {
			t.unpin(child)
			return fmt.Errorf("verify: index %d references dead child %d", n.id, childID)
		}
		if child.level() != n.level()-1 {
			t.unpin(child)
			return fmt.Errorf("verify: index %d (level %d) child %d has level %d", n.id, n.level(), childID, child.level())
		}
		if !bytes.Equal(child.c().Low, r.Key(i)) {
			t.unpin(child)
			return fmt.Errorf("verify: index %d term %q != child %d low %q", n.id, r.Key(i), childID, child.c().Low)
		}
		t.unpin(child)
	}
	return nil
}

// verifyLeafOrder walks the full leaf chain checking global key order. prev
// outlives its leaf's pin, and the pool may read another page into an
// untouched leaf's image once it is evicted, so prev is a copy.
func (t *Tree) verifyLeafOrder() error {
	ids, err := t.LevelNodes(0)
	var prev []byte
	for _, id := range ids {
		n, err := t.fetch(id)
		if err != nil {
			return err
		}
		for i := range n.c().Recs.Len() {
			k := n.c().Recs.Key(i)
			if prev != nil && t.cmp(prev, k) >= 0 {
				t.unpin(n)
				return fmt.Errorf("verify: leaf chain order violation at key %q (prev %q)", k, prev)
			}
			prev = append(prev[:0], k...)
		}
		t.unpin(n)
	}
	return err
}

// Records returns every record in key order (quiescent use only).
func (t *Tree) Records() (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := t.Scan(nil, nil, func(k, v []byte) bool {
		out[string(k)] = v
		return true
	})
	return out, err
}

// Len returns the total number of records.
func (t *Tree) Len() (int, error) { return t.Count(nil, nil) }
