package core

import (
	"bytes"
	"encoding/binary"

	"blinktree/internal/page"
)

// keyHeads is an index node's search index under the bytewise order
// (DESIGN.md §4b, "In-node search"): the prefix its keys but keys[0] share,
// then one integer head per key for what follows it; the keys are read
// through the node's Records. A search checks the prefix once
// and binary-searches the heads; only equal heads look at the keys. keys[0]
// is left out of the prefix because an index node's first key is its low
// fence, empty on the leftmost spine; it is compared once, when the answer
// is 0 or 1. A custom-comparator tree keeps the heads and never searches them.
type keyHeads struct {
	pfx int      // length of the prefix keys[1] and keys[n-1] share (0 below 3 keys)
	h   []uint64 // ⌈pfx/8⌉ prefix words (wordAt), then one head per key (headAt)
}

// wordAt returns the 8 bytes of k from i as a big-endian integer, the bytes
// past k's end counting as zeros.
func wordAt(k []byte, i int) uint64 {
	if len(k) >= i+8 {
		return binary.BigEndian.Uint64(k[i:])
	}
	var v uint64
	for _, c := range k[min(i, len(k)):] {
		v = v<<8 | uint64(c)
	}
	return v << (8 * (i + 8 - max(i, len(k))))
}

// headAt returns k's head past a prefix of pfx bytes: the next 7 bytes over
// a low byte counting the bytes k has past pfx, up to 8. A head that differs
// orders its key (a key that runs out of bytes first is the smaller), and
// equal heads under a count below 8 are equal keys.
func headAt(k []byte, pfx int) uint64 {
	return wordAt(k, pfx)&^0xff | uint64(min(max(len(k)-pfx, 0), 8))
}

// headPrefix is the length of the prefix the heads of r's keys are taken
// after.
func headPrefix(r *page.Records) int {
	n := r.Len()
	if n < 3 {
		return 0
	}
	a, b := r.Key(1), r.Key(n-1)
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// rebuild computes the prefix and every head of r's keys into a new array:
// an installed snapshot may hold the old one (see node.s), so it is never
// written again.
func (kh *keyHeads) rebuild(r *page.Records) {
	p := headPrefix(r)
	w := (p + 7) >> 3
	kh.pfx, kh.h = p, make([]uint64, w+r.Len())
	for j := range w {
		kh.h[j] = wordAt(r.Key(1)[:p], 8*j)
	}
	for i := range r.Len() {
		kh.h[w+i] = headAt(r.Key(i), p)
	}
}

// search returns the position of the first key of r that is >= key, and
// whether that key equals key. r's keys are sorted bytewise and kh is their
// heads.
func (kh *keyHeads) search(r *page.Records, key []byte) (int, bool) {
	n, p, w := r.Len(), kh.pfx, (kh.pfx+7)>>3
	// The prefix, word by word: a key that differs or ends inside it sorts
	// below keys[1] or above keys[n-1]. (An empty node answers 0.)
	lo, hi := min(1, n), n
	if len(key) < p {
		hi = 1
	}
	for j := 0; j < w; j++ {
		kw := wordAt(key, 8*j)
		if r := p - 8*j; r < 8 {
			kw &^= 1<<(64-8*r) - 1
		}
		if kw > kh.h[j] {
			return n, false
		} else if kw < kh.h[j] {
			hi = 1
			break
		}
	}
	want, h := headAt(key, p), kh.h[w:]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		x := h[mid]
		less := x < want
		if x == want {
			if want&0xff < 8 {
				return mid, true // both tails inside the head
			}
			c := bytes.Compare(r.Key(mid)[p+7:], key[p+7:])
			if c == 0 {
				return mid, true
			}
			less = c < 0
		}
		if less {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 1 { // keys[0], outside the prefix, decides between 0 and 1
		if c := bytes.Compare(r.Key(0), key); c >= 0 {
			return 0, c == 0
		}
	}
	return lo, false
}

// search is every in-node search of an index node s: on its heads under the
// bytewise order, through the comparator otherwise.
func (t *Tree) search(s *state, key []byte) (int, bool) {
	if t.bytewise {
		return s.hs.search(&s.Recs, key)
	}
	return s.Recs.Search(t.cmp, key)
}

// compare orders two keys, calling bytes.Compare directly when that is the
// tree's order.
func (t *Tree) compare(a, b []byte) int {
	if t.bytewise {
		return bytes.Compare(a, b)
	}
	return t.cmp(a, b)
}
