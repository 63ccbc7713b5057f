package core

import (
	"fmt"

	"blinktree/internal/latch"
	"blinktree/internal/obs"
)

// Backward iteration (§3.1.4: the cursor "shifts forward or backward as
// fetching proceeds"). Side pointers only chain rightward, so stepping
// backward cannot ride them; instead each backward step descends from the
// root choosing the rightmost subtree strictly below the bound — the
// technique the paper describes for range reads "without side pointers".
// The cost is one root-to-leaf descent per leaf boundary crossed, which
// matches the paper's remark that side pointers "only are effective in a
// single direction".

// predecessor returns a copy of the largest record strictly below bound
// (exclusive); bound nil means "below +inf", i.e. the largest record.
// ok=false means no such record exists.
func (t *Tree) predecessor(bound []byte) (key, val []byte, ok bool, err error) {
	cur := bound
	for attempt := 0; attempt < maxTraverseRestarts; attempt++ {
		leaf, release, err := t.descendPredRead(cur)
		if err != nil {
			return nil, nil, false, err
		}
		if leaf == nil {
			return nil, nil, false, nil // nothing below the bound
		}
		idx := len(leaf.c.Keys)
		if cur != nil {
			idx = lowerBound(t.cmp, leaf.c.Keys, cur)
		}
		if idx > 0 {
			key = append([]byte(nil), leaf.c.Keys[idx-1]...)
			val = append([]byte(nil), leaf.c.Vals[idx-1]...)
			release()
			return key, val, true, nil
		}
		// The covering leaf holds nothing below the bound (it may be
		// empty, or every key is >= bound). Everything smaller lives left
		// of this leaf's low fence: retry with the fence as the bound.
		low := append([]byte(nil), leaf.c.Low...)
		release()
		if len(low) == 0 {
			return nil, nil, false, nil // leftmost leaf: no predecessor
		}
		cur = low
	}
	t.traverseExhausted()
	return nil, nil, false, fmt.Errorf("blinktree: predecessor search live-locked")
}

// descendPred descends to the leaf that may contain keys strictly below
// bound (nil = +inf), latch-coupled. It returns the leaf Shared-latched
// with a release func, or (nil, noop) when no subtree lies below the bound.
func (t *Tree) descendPred(bound []byte) (*node, func(), error) {
	couple := !t.opts.NoDeleteSupport
restart:
	for attempt := 0; attempt < maxTraverseRestarts; attempt++ {
		rootID, _ := t.readAnchor()
		n, err := t.pinLatch(rootID, latch.Shared)
		if err != nil || n.dead {
			if err == nil {
				t.unlatchUnpin(n, latch.Shared, false)
			}
			t.c.restarts.Add(1)
			continue restart
		}
		for {
			// Move right while some sibling still has keys below bound:
			// only needed when bound is above this node's high fence.
			for bound == nil && n.c.Right != 0 {
				// Largest record overall: chase the rightmost node.
				m, err := t.sideStep(n, latch.Shared, couple, nil)
				if err != nil {
					t.c.restarts.Add(1)
					continue restart
				}
				n = m
			}
			// Keys strictly below bound exist to the right of n only when
			// n.High < bound (strict: a sibling with Low == High == bound
			// holds keys >= bound only).
			for bound != nil && n.c.High != nil && t.cmp(n.c.High, bound) < 0 {
				m, err := t.sideStep(n, latch.Shared, couple, nil)
				if err != nil {
					t.c.restarts.Add(1)
					continue restart
				}
				n = m
			}
			if n.isLeaf() {
				return n, func() { t.unlatchUnpin(n, latch.Shared, false) }, nil
			}
			// Choose the rightmost child with any key space below bound.
			ci := len(n.c.Children) - 1
			if bound != nil {
				ci = lowerBound(t.cmp, n.c.Keys, bound) - 1
				if ci < 0 {
					// Even keys[0] >= bound: nothing below bound here.
					// (Only possible at the leftmost edge, where keys[0]
					// is the -inf sentinel — then ci would be >= 0 — or
					// under a stale anchor; treat as no predecessor.)
					t.unlatchUnpin(n, latch.Shared, false)
					return nil, func() {}, nil
				}
			}
			child := n.c.Children[ci]
			var m *node
			if couple {
				m, err = t.pinLatch(child, latch.Shared)
				t.unlatchUnpin(n, latch.Shared, false)
			} else {
				t.unlatchUnpin(n, latch.Shared, false)
				m, err = t.pinLatch(child, latch.Shared)
			}
			if err != nil || m.dead {
				if err == nil {
					t.unlatchUnpin(m, latch.Shared, false)
				}
				t.c.restarts.Add(1)
				continue restart
			}
			n = m
		}
	}
	t.traverseExhausted()
	return nil, nil, fmt.Errorf("blinktree: descendPred live-locked")
}

// sideStep latches n's right sibling in mode (coupled when couple), releases
// n, which the caller holds in the same mode, and counts the side traversal.
// A sibling that cannot be fetched or is dead is an error with nothing held.
func (t *Tree) sideStep(n *node, mode latch.Mode, couple bool, sp *obs.Span) (*node, error) {
	sib := n.c.Right
	var m *node
	var err error
	if couple {
		m, err = t.pinLatchSpan(sib, mode, sp)
		t.unlatchUnpin(n, mode, false)
	} else {
		t.unlatchUnpin(n, mode, false)
		m, err = t.pinLatchSpan(sib, mode, sp)
	}
	if err != nil {
		return nil, err
	}
	if m.dead {
		t.unlatchUnpin(m, mode, false)
		return nil, errDeadSibling
	}
	t.c.sideTraversals.Add(1)
	return m, nil
}

// reverse cursor ------------------------------------------------------

// ReverseCursor iterates records in descending key order, holding no
// latches between fetches. Unlike Cursor it fetches per record — one
// predecessor descent and one Stats.Scans add for every Next — because no
// workload scans backwards at a rate that would repay batching a leaf.
type ReverseCursor struct {
	t     *Tree
	bound []byte // exclusive upper bound for the next fetch
	low   []byte // inclusive lower bound; nil/empty = -inf
	done  bool
}

// NewReverseCursor returns a cursor over [low, high) iterating downward
// from just below high. high nil means +inf; low nil/empty means -inf.
func (t *Tree) NewReverseCursor(low, high []byte) *ReverseCursor {
	c := &ReverseCursor{t: t, low: low}
	if high != nil {
		c.bound = append([]byte(nil), high...)
	}
	return c
}

// Next returns the next record in descending order, or ok=false when the
// range is exhausted.
func (c *ReverseCursor) Next() (key, val []byte, ok bool, err error) {
	if c.done {
		return nil, nil, false, nil
	}
	g, err := c.t.opBegin()
	if err != nil {
		return nil, nil, false, err
	}
	defer c.t.opEnd(g)
	c.t.c.scans.Add(1)
	k, v, ok, err := c.t.predecessor(c.bound)
	if err != nil {
		return nil, nil, false, err
	}
	if !ok || (len(c.low) > 0 && c.t.cmp(k, c.low) < 0) {
		c.done = true
		return nil, nil, false, nil
	}
	c.bound = k
	return k, v, true, nil
}

// ScanReverse calls fn for each record in [low, high) in descending key
// order; fn returning false stops the scan.
func (t *Tree) ScanReverse(low, high []byte, fn func(key, val []byte) bool) error {
	t0 := t.obsStart()
	defer t.obsOp(obs.OpScan, t0)
	cur := t.NewReverseCursor(low, high)
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

// Max returns the largest record, or ErrKeyNotFound on an empty tree.
func (t *Tree) Max() (key, val []byte, err error) {
	g, err := t.opBegin()
	if err != nil {
		return nil, nil, err
	}
	defer t.opEnd(g)
	k, v, ok, err := t.predecessor(nil)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, ErrKeyNotFound
	}
	return k, v, nil
}

// Min returns the smallest record, or ErrKeyNotFound on an empty tree.
func (t *Tree) Min() (key, val []byte, err error) {
	var rk, rv []byte
	found := false
	err = t.Scan(nil, nil, func(k, v []byte) bool {
		rk, rv = k, v
		found = true
		return false
	})
	if err != nil {
		return nil, nil, err
	}
	if !found {
		return nil, nil, ErrKeyNotFound
	}
	return rk, rv, nil
}
