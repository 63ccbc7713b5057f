package core

import (
	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
)

// Cursor iterates records in key order without holding latches between
// fetches (§3.1.4: "we cannot maintain page latches continuously on the
// leaf nodes in the range"). It reads a leaf at a time: one Shared latch
// acquisition copies every remaining in-range record of the leaf into a
// batch, the latch and pin are dropped, and Next serves the batch. What a
// scan observes is therefore a snapshot per leaf, not per record: a record
// written or deleted in the current leaf after it was read is not reflected,
// one in a leaf not yet read is. Keys are still returned in strictly
// ascending order, and a key present for the whole scan exactly once.
//
// Between leaves the cursor remembers the path down the tree and uses the
// re-latch procedure to resume; if delete state shows the remembered nodes
// may be gone, it falls back to a fresh traversal — the cursor never
// aborts, it just pays a re-traverse.
type Cursor struct {
	t *Tree

	// pos is the position: the next fill resumes at the first key >= pos —
	// the start bound, a Seek target, or the high fence of the leaf last
	// read; empty means the smallest key. It is the cursor's own copy, never
	// a slice handed to the caller.
	pos  []byte
	end  []byte // exclusive upper bound; nil = +inf
	done bool   // nothing in range lies beyond the batch

	// batch holds the records of the current leaf still to be returned, key
	// and value alternating from next on, as views of one arena allocated
	// per leaf (never reused: returned slices stay valid). The header array
	// is the cursor's and is reused.
	batch [][]byte
	next  int

	path []pathEntry
	dx   uint64

	// sp is the owning scan's span (nil when unsampled): one span covers
	// the whole scan, accumulating positioning and side-step stages across
	// Next calls.
	sp *obs.Span

	// reverse makes this a ReverseCursor's (reverse.go): pos is then the
	// exclusive upper bound of what is left (nil = +inf), end the inclusive
	// lower bound (nil/empty = -inf), batches run in descending order and
	// path is unused.
	reverse bool
}

// NewCursor returns a cursor over [start, end); end nil means +inf, start
// nil or empty means the smallest key.
func (t *Tree) NewCursor(start, end []byte) *Cursor {
	return &Cursor{t: t, pos: append([]byte(nil), start...), end: end}
}

// Next returns the next record in order, or ok=false at the end of the
// range. Key and value are copies the caller may keep. Only a call that
// finds the current leaf's batch used up touches the tree (see Cursor).
func (c *Cursor) Next() (key, val []byte, ok bool, err error) {
	if c.next == len(c.batch) {
		c.dropBatch()
		if c.done {
			return nil, nil, false, nil
		}
		if err := c.fill(); err != nil || len(c.batch) == 0 {
			return nil, nil, false, err
		}
	}
	key, val = c.batch[c.next], c.batch[c.next+1]
	c.next += 2
	return key, val, true, nil
}

// dropBatch forgets the current batch, first publishing the records
// delivered from it to Stats.Scans — one shared-counter add per leaf.
func (c *Cursor) dropBatch() {
	if c.next > 0 {
		c.t.c.scans.Add(uint64(c.next / 2))
	}
	c.batch, c.next = c.batch[:0], 0
}

// fill reads the next non-empty stretch of the range: it latches the leaf
// covering the position, moves right past leaves with nothing in range, and
// batches the first leaf that has something. It leaves the batch empty, and
// the cursor done, when the range is exhausted.
func (c *Cursor) fill() error {
	if c.reverse {
		return c.fillReverse()
	}
	g, err := c.t.opBegin()
	if err != nil {
		return err
	}
	defer c.t.opEnd(g)

	leaf, err := c.position()
	if err != nil {
		return err
	}
	for {
		recs := &leaf.c().Recs
		lo, hi := 0, recs.Len()
		if len(c.pos) > 0 {
			lo, _ = recs.Search(c.t.cmp, c.pos)
		}
		if c.end != nil {
			hi, _ = recs.Search(c.t.cmp, c.end)
			hi = max(hi, lo)
		}
		sib := leaf.c().Right
		// Done when a key at or past end exists here, when there is no later
		// leaf, or when every later leaf lies past end.
		c.done = hi < recs.Len() || sib == 0 ||
			(c.end != nil && !leaf.pastHigh(c.t, c.end))
		if lo < hi {
			// Resume at this leaf's high fence: whatever is written below it
			// from now on belongs to the snapshot just taken.
			c.load(recs, lo, hi, leaf.c().High)
			c.dx = c.t.dx.v.Load()
		}
		if lo < hi || c.done {
			c.t.unlatchUnpin(leaf, latch.Shared, false)
			return nil
		}
		// Nothing in range in this leaf: follow the side pointer (latch
		// coupled); every key of the sibling is >= pos.
		var ok bool
		if leaf, ok = c.t.sideStep(leaf, latch.Shared, true, c.sp); !ok {
			// Rare: restart positioning from the remembered key.
			if leaf, err = c.freshTraverse(); err != nil {
				return err
			}
		}
	}
}

// load copies a leaf's records [lo, hi) into a fresh arena and makes them
// the batch, in the cursor's direction. The arena's tail holds the cursor's
// own copy of resume, the next position, so the caller owns every byte it is
// handed.
func (c *Cursor) load(recs *page.Records, lo, hi int, resume []byte) {
	size := len(resume)
	for i := lo; i < hi; i++ {
		size += len(recs.Key(i)) + len(recs.Val(i))
	}
	arena := make([]byte, size)
	a := 0
	for j := lo; j < hi; j++ {
		i := j
		if c.reverse {
			i = hi - 1 - (j - lo)
		}
		k := a + copy(arena[a:], recs.Key(i))
		v := k + copy(arena[k:], recs.Val(i))
		c.batch = append(c.batch, arena[a:k:k], arena[k:v:v])
		a = v
	}
	copy(arena[a:], resume)
	c.pos = arena[a:]
}

// position re-latches the leaf covering pos, preferring the remembered
// path (re-latch, §2.4 case 2) and falling back to a fresh traversal when
// delete state invalidated it.
func (c *Cursor) position() (*node, error) {
	if c.path != nil {
		leaf, path, err := c.t.relatch(c.path, c.pos, c.dx, latch.Shared, false)
		if err == nil {
			c.path = path
			return leaf, nil
		}
		// Delete state changed: the remembered path is worthless, not the
		// cursor. Re-traverse.
	}
	return c.freshTraverse()
}

func (c *Cursor) freshTraverse() (*node, error) {
	dx := c.t.dx.v.Load()
	// The cursor keeps the path, so it lends its own storage, not a pathBuf.
	leaf, path, err := c.t.traverseRead(traverseOpts{key: c.pos, intent: latch.Shared, dx: dx, sp: c.sp}, c.path[:0])
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
	c.dropBatch()
	c.done = false
	c.pos = append([]byte(nil), target...)
	// The remembered path stays: re-latch will ride it if still valid.
}

// Scan calls fn for each record in [start, end) in key order; fn returning
// false stops the scan. No latches are held across fn calls: the scan reads
// a leaf at a time and calls fn on its copy, so it observes a snapshot per
// leaf (see Cursor) and fn may itself call into the tree.
func (t *Tree) Scan(start, end []byte, fn func(key, val []byte) bool) error {
	t0, sp := t.obsBegin(obs.OpScan)
	defer t.obsEnd(obs.OpScan, t0, sp)
	cur := t.NewCursor(start, end)
	cur.sp = sp
	return cur.each(fn)
}

// each calls fn on every record the cursor delivers until fn returns false
// or the range ends: the loop behind Scan and ScanReverse.
func (c *Cursor) each(fn func(key, val []byte) bool) error {
	for {
		k, v, ok, err := c.Next()
		if err != nil || !ok {
			return err
		}
		if !fn(k, v) {
			c.dropBatch() // publishes the records delivered so far
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
