package core

import (
	"blinktree/internal/latch"
	"blinktree/internal/obs"
)

// Backward iteration (§3.1.4: the cursor "shifts forward or backward as
// fetching proceeds"). Side pointers only chain rightward, so a reverse
// cursor cannot ride them from one leaf to the next: each leaf it reads is
// found by a descent from the root to the leaf holding the largest keys below
// its position (traverseOpts.below) — the technique the paper describes for
// range reads "without side pointers". Otherwise it reads like Cursor, a leaf
// per latch: one Shared latch copies the leaf's in-range records, in
// descending order, and the position moves down to the leaf's low fence. The
// cost is one descent per leaf, which matches the paper's remark that side
// pointers "only are effective in a single direction", and what a reverse
// scan observes is a snapshot per leaf, as for a forward one.

// ReverseCursor iterates records in descending key order, holding no
// latches between fetches. It is a Cursor whose fills read backward. Its
// position is a key — the low fence of the leaf last read — not a remembered
// page, so a fill has nothing to validate: it descends afresh.
type ReverseCursor struct{ c Cursor }

// NewReverseCursor returns a cursor over [low, high) iterating downward
// from just below high. high nil means +inf; low nil/empty means -inf.
func (t *Tree) NewReverseCursor(low, high []byte) *ReverseCursor {
	return &ReverseCursor{c: Cursor{
		t:       t,
		pos:     append([]byte(nil), high...),
		end:     low,
		done:    high != nil && len(high) == 0, // nothing lies below the empty key
		reverse: true,
	}}
}

// Next returns the next record in descending order, or ok=false when the
// range is exhausted. Key and value are copies the caller may keep.
func (r *ReverseCursor) Next() (key, val []byte, ok bool, err error) { return r.c.Next() }

// fillReverse is fill for a reverse cursor: it latches the leaf holding the
// largest keys below pos and batches its records in [end, pos), descending;
// the next fill resumes below the leaf's low fence. A leaf with nothing in
// range costs one more descent, from its low fence. It leaves the batch
// empty, and the cursor done, when the range is exhausted.
func (c *Cursor) fillReverse() error {
	g, err := c.t.opBegin()
	if err != nil {
		return err
	}
	defer c.t.opEnd(g)
	for {
		var pb pathBuf
		o := traverseOpts{key: c.pos, below: true, intent: latch.Shared, dx: c.t.dx.v.Load(), sp: c.sp}
		leaf, _, err := c.t.traverseRead(o, pb[:0])
		if err != nil {
			return err
		}
		recs, low := &leaf.c().Recs, leaf.c().Low
		lo, hi := 0, recs.Len()
		if c.pos != nil {
			hi, _ = recs.Search(c.t.cmp, c.pos)
		}
		if len(c.end) > 0 {
			lo, _ = recs.Search(c.t.cmp, c.end)
			lo = min(lo, hi)
		}
		// Done at the leftmost leaf, or when every key left of this leaf
		// lies below end.
		c.done = len(low) == 0 || len(c.end) > 0 && c.t.cmp(low, c.end) <= 0
		if lo < hi {
			c.load(recs, lo, hi, low)
		} else if !c.done {
			c.pos = append(c.pos[:0], low...)
		}
		c.t.unlatchUnpin(leaf, latch.Shared, false)
		if lo < hi || c.done {
			return nil
		}
	}
}

// ScanReverse calls fn for each record in [low, high) in descending key
// order; fn returning false stops the scan. Like Scan it holds no latch
// across fn and observes a snapshot per leaf.
func (t *Tree) ScanReverse(low, high []byte, fn func(key, val []byte) bool) error {
	t0, sp := t.obsBegin(obs.OpScan)
	defer t.obsEnd(obs.OpScan, t0, sp)
	cur := t.NewReverseCursor(low, high)
	cur.c.sp = sp
	return cur.c.each(fn)
}

// Min returns the smallest record, or ErrKeyNotFound on an empty tree.
func (t *Tree) Min() (key, val []byte, err error) { return first(t.NewCursor(nil, nil).Next()) }

// Max returns the largest record, or ErrKeyNotFound on an empty tree.
func (t *Tree) Max() (key, val []byte, err error) { return first(t.NewReverseCursor(nil, nil).Next()) }

// first turns a fresh cursor's first Next into Min's or Max's answer.
func first(key, val []byte, ok bool, err error) ([]byte, []byte, error) {
	if err == nil && !ok {
		err = ErrKeyNotFound
	}
	return key, val, err
}
