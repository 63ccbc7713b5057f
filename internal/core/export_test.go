package core

// withLatchedReads sends every read of tr down the latched traversal, the
// reference the optimistic descent is checked against. Call it before tr is
// shared.
func withLatchedReads(tr *Tree) { tr.latchedReads = true }
