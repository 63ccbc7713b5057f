package core

import (
	"blinktree/internal/latch"
	"blinktree/internal/obs"
)

// Cursor iterates records in key order without holding latches between
// fetches (§3.1.4: "we cannot maintain page latches continuously on the
// leaf nodes in the range"). It remembers the path down the tree and uses
// the re-latch procedure to resume; if delete state shows the remembered
// nodes may be gone, it falls back to a fresh traversal — the cursor never
// aborts, it just pays a re-traverse.
type Cursor struct {
	t *Tree

	// lastKey is the largest key already returned; nil before the first
	// Next. The cursor is positioned strictly after it.
	lastKey []byte
	end     []byte // exclusive upper bound; nil = +inf
	started bool
	done    bool

	path []pathEntry
	dx   uint64

	// sp is the owning scan's span (nil when unsampled): one span covers
	// the whole scan, accumulating positioning and side-step stages across
	// Next calls.
	sp *obs.Span
}

// NewCursor returns a cursor over [start, end); end nil means +inf, start
// nil or empty means the smallest key.
func (t *Tree) NewCursor(start, end []byte) *Cursor {
	c := &Cursor{t: t, end: end}
	if len(start) > 0 {
		// Position strictly-after the key just below start: implemented by
		// treating start as "lastKey already returned" minus one step —
		// the fetch uses >= for the first positioning.
		c.lastKey = append([]byte(nil), start...)
	}
	return c
}

// Next returns the next record in order, or ok=false at the end of the
// range. Key and value are copies.
func (c *Cursor) Next() (key, val []byte, ok bool, err error) {
	if c.done {
		return nil, nil, false, nil
	}
	if err := c.t.opBegin(); err != nil {
		return nil, nil, false, err
	}
	defer c.t.opEnd()
	c.t.c.scans.Add(1)

	seek := c.lastKey
	if seek == nil {
		seek = []byte{} // smallest
	}
	leaf, rerr := c.position(seek)
	if rerr != nil {
		return nil, nil, false, rerr
	}
	// Find the first key matching the cursor's progress: strictly greater
	// than lastKey once started (or >= start before the first return).
	for {
		idx := 0
		if len(seek) > 0 {
			i, found := leaf.searchLeaf(c.t.cmp, seek)
			idx = i
			if found && c.started {
				idx = i + 1 // strictly after the already-returned key
			}
		}
		if idx < len(leaf.c.Keys) {
			k := leaf.c.Keys[idx]
			if c.end != nil && c.t.cmp(k, c.end) >= 0 {
				c.t.unlatchUnpin(leaf, latch.Shared, false)
				c.done = true
				return nil, nil, false, nil
			}
			key = append([]byte(nil), k...)
			val = append([]byte(nil), leaf.c.Vals[idx]...)
			c.lastKey = key
			c.started = true
			c.dx = c.t.dx.v.Load()
			c.t.unlatchUnpin(leaf, latch.Shared, false)
			return key, val, true, nil
		}
		// Exhausted this leaf: follow the side pointer (latch coupled).
		sib := leaf.c.Right
		if sib == 0 {
			c.t.unlatchUnpin(leaf, latch.Shared, false)
			c.done = true
			return nil, nil, false, nil
		}
		q, perr := c.t.pinLatchSpan(sib, latch.Shared, c.sp)
		c.t.unlatchUnpin(leaf, latch.Shared, false)
		if perr != nil || q.dead {
			if perr == nil {
				c.t.unlatchUnpin(q, latch.Shared, false)
			}
			// Rare: restart positioning from the remembered key.
			leaf, rerr = c.freshTraverse(seek)
			if rerr != nil {
				return nil, nil, false, rerr
			}
			continue
		}
		leaf = q
		// Keys in the sibling are all > anything seen: take its first.
		seek = []byte{}
	}
}

// position re-latches the leaf covering seek, preferring the remembered
// path (re-latch, §2.4 case 2) and falling back to a fresh traversal when
// delete state invalidated it.
func (c *Cursor) position(seek []byte) (*node, error) {
	if c.path != nil {
		leaf, path, err := c.t.relatch(c.path, seek, c.dx, latch.Shared, false)
		if err == nil {
			c.path = path
			return leaf, nil
		}
		// Delete state changed: the remembered path is worthless, not the
		// cursor. Re-traverse.
	}
	return c.freshTraverse(seek)
}

func (c *Cursor) freshTraverse(seek []byte) (*node, error) {
	dx := c.t.dx.v.Load()
	// The cursor keeps the path, so it lends its own storage, not a pathBuf.
	leaf, path, err := c.t.traverseRead(traverseOpts{key: seek, intent: latch.Shared, dx: dx, sp: c.sp}, c.path[:0])
	if err != nil {
		return nil, err
	}
	c.path = path
	c.dx = dx
	return leaf, nil
}

// Seek repositions the cursor so the next Next returns the first record
// with key >= target (still bounded by the cursor's end). Seeking backward
// is allowed.
func (c *Cursor) Seek(target []byte) {
	c.done = false
	c.started = false
	c.lastKey = append(c.lastKey[:0], target...)
	// The remembered path stays: re-latch will ride it if still valid.
}

// Scan calls fn for each record in [start, end) in key order; fn returning
// false stops the scan. No latches are held across fn calls.
func (t *Tree) Scan(start, end []byte, fn func(key, val []byte) bool) error {
	t0, sp := t.obsBegin(obs.OpScan)
	defer t.obsEnd(obs.OpScan, t0, sp)
	cur := t.NewCursor(start, end)
	cur.sp = sp
	for {
		k, v, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if !fn(k, v) {
			return nil
		}
	}
}

// Count returns the number of records in [start, end).
func (t *Tree) Count(start, end []byte) (int, error) {
	n := 0
	err := t.Scan(start, end, func(_, _ []byte) bool { n++; return true })
	return n, err
}
