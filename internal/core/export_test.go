package core

import (
	"reflect"
	"unsafe"

	"blinktree/internal/page"
)

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

// slotWords returns copies of r's slot words (key head << 32 | entry offset)
// and of the prefix the heads are taken past. page.Records keeps both
// unexported; reflection reads them.
func slotWords(r *page.Records) (slots []uint64, pfx []byte) {
	v := reflect.ValueOf(r).Elem()
	sv, pv := v.FieldByName("slots"), v.FieldByName("pfx")
	for i := range sv.Len() {
		slots = append(slots, sv.Index(i).Uint())
	}
	for i := range pv.Len() {
		pfx = append(pfx, byte(pv.Index(i).Uint()))
	}
	return slots, pfx
}

// setSlotWord gives r a copy of its slot array with word i replaced: a stale
// head, which no mutator of page.Records writes.
func setSlotWord(r *page.Records, i int, w uint64) {
	f := reflect.ValueOf(r).Elem().FieldByName("slots")
	slots := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Interface().(*[]uint64)
	*slots = append([]uint64(nil), *slots...)
	(*slots)[i] = w
}
