package core

// withLatchedReads sends every read of tr down the latched traversal, the
// reference the optimistic descent is checked against. Call it before tr is
// shared.
func withLatchedReads(tr *Tree) { tr.latchedReads = true }

// withoutAppendFast turns off tr's right-edge append fast path: the hint is
// never published, so every insert descends from the root. For tests whose
// interleavings need each insert to traverse. Call it before tr is shared.
func withoutAppendFast(tr *Tree) {
	tr.noAppendFast = true
	tr.rightEdge.Store(nil)
}
