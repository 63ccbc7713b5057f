package core

import (
	"blinktree/internal/latch"
)

// relatch re-establishes a latch on the leaf currently containing key after
// the caller released all latches (to wait on a denied no-wait lock, §2.4,
// or between cursor fetches, §3.1.4).
//
// The remembered path makes this fast: if D_X has not changed, the
// remembered parent-of-leaf still exists and is re-latched directly, then
// one latch-coupled step reaches the leaf (plus rightward moves for any
// splits). If D_X has changed, relatch fails with errDeleteState and the
// caller aborts (transactions) or falls back to a fresh traversal
// (cursors). The returned path has the parent entry refreshed.
func (t *Tree) relatch(path []pathEntry, key []byte, rememberedDX uint64, intent latch.Mode, promote bool) (*node, []pathEntry, error) {
	t.c.relatches.Add(1)
	if t.opts.NoDeleteSupport || len(path) == 0 {
		// No deletes (references never dangle) or the root is the leaf:
		// a fresh traversal is the re-latch.
		return t.traverse(traverseOpts{key: key, intent: intent, promote: promote, dx: rememberedDX}, nil)
	}
	if t.dx.v.Load() != rememberedDX {
		return nil, nil, errDeleteState
	}
	parent := path[len(path)-1]
	p, ok := t.fetchSame(parent.ref, latch.Shared, nil)
	if !ok {
		return nil, nil, errDeleteState
	}
	// Rightward moves for parent splits since the original traversal.
	for p.pastHigh(t, key) {
		if p, ok = t.sideStep(p, latch.Shared, true, nil); !ok {
			return nil, nil, errDeleteState
		}
	}
	// "Finding the correct leaf can be immediate if D_D indicates that the
	// remembered leaf node still exists" — we count the fast path; either
	// way one latch-coupled descent reaches the right leaf.
	s := p.c()
	if s.DD == parent.dd {
		t.c.relatchFast.Add(1)
	}
	ci := (&traverseOpts{key: key}).childIn(t, s)
	if ci < 0 {
		t.unlatchUnpin(p, latch.Shared, false)
		return nil, nil, errDeleteState
	}
	newPath := append(append([]pathEntry(nil), path[:len(path)-1]...), pathEntry{
		ref:   ref{id: p.id, epoch: s.Epoch},
		level: s.Level,
		dd:    s.DD,
	})
	leaf, ok := t.step(p, latch.Shared, s.Recs.Child(ci), intent, true, nil)
	if !ok {
		return nil, nil, errDeleteState
	}
	// Leaf-level rightward moves (splits below the parent's knowledge).
	for leaf.pastHigh(t, key) {
		if leaf, ok = t.sideStep(leaf, intent, true, nil); !ok {
			return nil, nil, errDeleteState
		}
	}
	if promote && intent == latch.Update {
		leaf.latch.Promote()
	}
	return leaf, newPath, nil
}
