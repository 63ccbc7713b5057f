package core

import (
	"fmt"

	"blinktree/internal/latch"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// splitLocked performs the first half split of n (A.2), which must be held
// in Exclusive mode by the caller. The upper half of n's entries moves to a
// freshly allocated right sibling; n's side pointer and high fence are
// updated so the tree is immediately well-formed. The index-term posting
// (the second half split) is enqueued on the to-do queue.
//
// parent/dd are the remembered parent reference and its D_D from the
// caller's traversal path (zero parent = n was at root level). dx is the
// delete state remembered at operation start.
//
// The whole first half split is one atomic action: a single SMO log record
// carries both after-images and the allocation.
func (t *Tree) splitLocked(n *node, parent ref, dd uint64, dx uint64) error {
	s := n.edit()
	if nk := s.Recs.Len(); nk < 2 {
		return fmt.Errorf("blinktree: splitting node %d with %d entries", n.id, nk)
	}
	mid := t.splitPoint(s)
	var sep []byte
	if s.Kind == page.Leaf && t.bytewise {
		// Suffix truncation: any separator s with lastLeft < s <= firstRight
		// partitions the halves correctly, so pick the shortest one. Short
		// separators shrink every index level above. Only valid under
		// bytewise ordering (a custom comparator need not order prefixes).
		sep = shortestSeparator(s.Recs.Key(mid-1), s.Recs.Key(mid))
	} else {
		// Index separators must stay exact: an index term's key must equal
		// its child's low fence.
		sep = append([]byte(nil), s.Recs.Key(mid)...)
	}

	newC := page.Content{
		Kind:  s.Kind,
		Level: s.Level,
		Low:   sep,
		High:  s.High, // may be nil (+inf)
		Right: s.Right,
		// D_D is copied to the new half so delete-state values remembered
		// against the old parent remain comparable after rightward
		// traversal (monotone along the copy chain).
		DD: s.DD,
	}
	newC.Recs.AppendFrom(&s.Recs, mid)

	right, err := t.allocNode(newC)
	if err != nil {
		return err
	}

	// Shrink the original and hook up the side pointer carrying the new
	// node's key space description (High of n == Low of new).
	s.High, s.Right = sep, right.id
	s.Recs.Truncate(mid)
	s.raw = s.countRaw()
	n.install(s)

	if err = t.logSplit(n, right); err != nil {
		t.fail(err, n, right)
	}
	// The new half becomes reachable through n's side pointer once the
	// caller releases n; through its page ID it has been reachable since
	// allocNode, which is why it was born latched.
	t.unlatchUnpin(right, latch.Exclusive, true)
	if err != nil {
		return err
	}
	t.c.splits.Add(1)

	a := action{
		kind:   actPost,
		level:  s.Level,
		origID: n.id, origEpoch: s.Epoch,
		newID:  right.id,
		sep:    sep,
		parent: parent,
		dx:     dx,
		dd:     dd,
	}
	t.c.postsEnqueued.Add(1)
	t.todo.enqueue(a)
	return nil
}

// shortestSeparator returns the shortest byte string s with a < s <= b
// (callers guarantee a < b). It is the shortest prefix of b that still
// exceeds a.
func shortestSeparator(a, b []byte) []byte {
	for i := 0; i < len(b); i++ {
		if i >= len(a) || a[i] != b[i] {
			return append([]byte(nil), b[:i+1]...)
		}
	}
	// a is a prefix of b (a < b means len(a) < len(b)): all of b is needed.
	return append([]byte(nil), b...)
}

// splitPoint picks the split position that most evenly divides the node's
// serialized size, keeping at least one entry on each side.
//
// For index nodes the size-balanced position is only a starting point: an
// index separator must equal the new right half's low fence exactly (a
// truncated separator would misroute keys interior to the child left of the
// cut), so instead of shortening the separator itself the split slides the
// cut within a window of ±nk/8 entries around the balanced midpoint to the
// position whose existing key is shortest. The chosen key becomes both
// fences and the separator posted one level up, so a short pick shrinks
// every level above — the index-level analogue of leaf suffix truncation,
// and sound under any comparator because the separator is an existing key.
func (t *Tree) splitPoint(s *state) int {
	r := &s.Recs
	nk, total := r.Len(), 0
	sizes := make([]int, nk)
	for i := range sizes {
		sizes[i] = r.Size(i)
		total += sizes[i]
	}
	mid := nk / 2
	half := total / 2
	acc := 0
	for i, s := range sizes {
		acc += s
		if acc >= half {
			mid = i + 1
			if mid >= nk {
				mid = nk - 1
			}
			break
		}
	}
	if s.Kind == page.Leaf {
		return mid
	}
	// Shortest-fence window selection for index nodes.
	w := nk / 8
	if w < 1 {
		w = 1
	}
	lo, hi := mid-w, mid+w
	if lo < 1 {
		lo = 1
	}
	if hi > nk-1 {
		hi = nk - 1
	}
	best := mid
	for i := lo; i <= hi; i++ {
		kl := len(r.Key(i))
		bl := len(r.Key(best))
		if kl < bl || (kl == bl && abs(i-mid) < abs(best-mid)) {
			best = i
		}
	}
	return best
}

// abs returns the absolute value of x.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// logSplit writes the single atomic SMO record for a half split and stamps
// both nodes with its LSN. With logging disabled it is a no-op.
func (t *Tree) logSplit(orig, right *node) error {
	if t.log == nil {
		return nil
	}
	_, err := t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
		orig.lsn = uint64(lsn)
		right.lsn = uint64(lsn)
		right.c().Epoch = uint64(lsn)
		return &wal.Record{
			Type:   wal.TSMO,
			SMO:    wal.SMOSplit,
			Images: append(t.pageImage(orig), t.pageImage(right)...),
			Allocs: []page.PageID{right.id},
		}
	})
	return err
}

// mergedSize returns the serialized size of left after absorbing victim's
// entries, high fence and side pointer (A.5 step 4's fit check). It must be
// exact, not an estimate: with fence-key prefix compression the merge
// extends left's key space to victim's High, which can SHRINK the shared
// fence prefix and make every key on the page cost more bytes than before.
// So: the merged node's header and fences, both nodes' uncompressed entries,
// less the prefix the merged fences share.
func (t *Tree) mergedSize(left, victim *node) int {
	l, v := left.c(), victim.c()
	m := page.Content{Kind: l.Kind, Low: l.Low, High: v.High, Compress: l.Compress}
	entries := func(s *state) int { return s.raw - (&page.Content{Low: s.Low, High: s.High}).Size() }
	nk := l.Recs.Len() + v.Recs.Len() // a leaf's m.PrefixLen() is 0
	return m.Size() + entries(l) + entries(v) - nk*m.PrefixLen()
}
