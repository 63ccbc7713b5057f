package page

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
)

// Records is a resident node's entries where they sit: in the page image
// the node was decoded from, or in a page buffer the node owns. One slot per
// entry, in key order, holds the entry's offset in that buffer beside the
// key's head (see Search), and an entry is laid out as on the page: a leaf's
// record is u16 key length, key, u16 value length, value; an index entry is
// u16 key length, key, u64 child. So a decode fills the slots and copies
// nothing, a search runs on the slots, and an encode copies each live entry
// once.
//
// A Records never writes bytes it has handed out. A decoded image has no
// free tail, so the first insert copies the live entries into a fresh
// buffer; later entries are appended to that buffer's free tail; Delete only
// drops a slot; and a full tail compacts the live entries into another fresh
// buffer. A key or value slice taken from a Records that has been written
// (Untouched is false) therefore stays valid and unchanged for as long as it
// is held, whatever the node does next. A slice of a still Untouched image
// stays valid only until the leaf is evicted untouched, when the buffer pool
// may read another page into the image (DESIGN.md §4b): a holder that
// outlives its pin copies it, unless it mutates the leaf first. Every slice
// handed out has cap == len.
//
// A leaf's Records is not safe for concurrent mutation: the tree's leaf
// latch guards it. An index node's is copy-on-write: its mutators never
// write a slot either, heads included, but give the copy they edit a new
// slot array, so a Records value copied before an edit reads and searches
// what it did before, and the tree hands such copies to latch-free readers
// (internal/core).
type Records struct {
	buf   []byte
	slots []uint64 // head<<32 | offset
	pfx   []byte   // a prefix every key but the first has (Search)
	tail  int      // first free byte of buf; len(buf) for a decoded image
	bytes int      // encoded size of the live entries
	image bool     // buf is the decoded image and no mutator has run since
	index bool     // index entries (u64 child), copy-on-write slots
}

// Untouched reports whether r still reads the image UnmarshalInto decoded it
// from and no mutator has run on it since. Every mutator clears it for good.
func (r *Records) Untouched() bool { return r.image }

// Len returns the number of entries.
func (r *Records) Len() int { return len(r.slots) }

// Key returns entry i's key.
func (r *Records) Key(i int) []byte {
	p := int(uint32(r.slots[i])) + 2
	e := p + int(binary.LittleEndian.Uint16(r.buf[p-2:]))
	return r.buf[p:e:e]
}

// Val returns leaf record i's value.
func (r *Records) Val(i int) []byte {
	p := int(uint32(r.slots[i]))
	p += 4 + int(binary.LittleEndian.Uint16(r.buf[p:]))
	e := p + int(binary.LittleEndian.Uint16(r.buf[p-2:]))
	return r.buf[p:e:e]
}

// Child returns index entry i's child.
func (r *Records) Child(i int) PageID {
	p := int(uint32(r.slots[i]))
	p += 2 + int(binary.LittleEndian.Uint16(r.buf[p:]))
	return PageID(binary.LittleEndian.Uint64(r.buf[p:]))
}

// Search returns the position of the first record whose key is >= key
// under cmp (Len when every key is smaller) and whether that key equals key.
//
// A nil cmp is the bytewise order, searched on the slots' heads (DESIGN.md
// §4b, "In-node search"): one compare with the prefix, integer compares of
// the heads past it, a key read only on a tie of two keys longer than a
// head, and one compare with the first key, which may lie outside the
// prefix, when the answer is 0 or 1.
func (r *Records) Search(cmp func(a, b []byte) int, key []byte) (int, bool) {
	n := len(r.slots)
	if cmp != nil {
		i := sort.Search(n, func(i int) bool { return cmp(r.Key(i), key) >= 0 })
		return i, i < n && cmp(r.Key(i), key) == 0
	}
	lo, hi, p := min(1, n), n, len(r.pfx)
	// A key that differs from the prefix below it, or ends inside it, lies
	// below keys[1]; one that differs above it lies above every key.
	if c := bytes.Compare(key[:min(p, len(key))], r.pfx); c < 0 {
		hi = lo
	} else if c > 0 {
		lo = hi
	}
	want := head(key, p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		h := uint32(r.slots[mid] >> 32)
		less := h < want
		if h == want {
			c := 0 // both tails inside the head: equal keys
			if h&0xff == 4 {
				c = bytes.Compare(r.Key(mid)[p+3:], key[p+3:])
			}
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
	if lo == 1 {
		if c := bytes.Compare(r.Key(0), key); c >= 0 {
			return 0, c == 0
		}
	}
	return lo, false
}

// head returns k's head past a prefix of p bytes: the next 3 bytes, zero
// padded, over a low byte counting the bytes k has past p, up to 4. A head
// that differs orders its key (a key that runs out of bytes first is the
// smaller), and equal heads under a count of 4 are equal keys.
func head(k []byte, p int) uint32 {
	switch t := k[min(p, len(k)):]; len(t) {
	case 0:
		return 0
	case 1:
		return uint32(t[0])<<24 | 1
	case 2:
		return uint32(t[0])<<24 | uint32(t[1])<<16 | 2
	case 3:
		return uint32(t[0])<<24 | uint32(t[1])<<16 | uint32(t[2])<<8 | 3
	default:
		return binary.BigEndian.Uint32(t)&^0xff | 4
	}
}

// setHeads writes every slot's head for the current prefix.
func (r *Records) setHeads() {
	p := len(r.pfx)
	for i, s := range r.slots {
		r.slots[i] = uint64(head(r.Key(i), p))<<32 | uint64(uint32(s))
	}
}

// reprefix takes the prefix as what the keys but the first share — under
// the bytewise order, what keys[1] and the last key share — and writes
// every head: the decode and AppendFrom, which read every key anyway.
func (r *Records) reprefix() {
	r.pfx = nil
	if n := len(r.slots); n > 1 {
		r.pfx = r.Key(1)[:commonPrefix(r.Key(1), r.Key(n-1))]
	}
	r.setHeads()
}

// insert adds slot i for the entry at offset p, then fits the prefix to the
// key the insert brought among the keys past the first: entry i, or the
// former first entry when i is 0. A prefix only shrinks here, and each
// shrink writes every head; a node of up to two entries takes it afresh.
func (r *Records) insert(i, p int) {
	r.slots = slices.Insert(r.slots, i, uint64(p))
	r.slots[i] |= uint64(head(r.Key(i), len(r.pfx))) << 32
	if len(r.slots) <= 2 {
		r.reprefix()
	} else if q := commonPrefix(r.pfx, r.Key(max(i, 1))); q < len(r.pfx) {
		r.pfx = r.pfx[:q]
		r.setHeads()
	}
}

// Size returns the encoded size of entry i.
func (r *Records) Size(i int) int { return len(r.record(i)) }

// record returns the encoded bytes of entry i.
func (r *Records) record(i int) []byte {
	p := int(uint32(r.slots[i]))
	k := int(binary.LittleEndian.Uint16(r.buf[p:]))
	if r.index {
		return r.buf[p : p+10+k]
	}
	return r.buf[p : p+4+k+int(binary.LittleEndian.Uint16(r.buf[p+2+k:]))]
}

// Insert adds (key, val) as leaf record i.
func (r *Records) Insert(i int, key, val []byte) {
	p := r.room(EntrySize(Leaf, len(key), len(val)))
	putRecord(r.buf[p:], key, val)
	r.insert(i, p)
}

// InsertChild adds (key, child) as index entry i.
func (r *Records) InsertChild(i int, key []byte, child PageID) {
	p := r.room(EntrySize(Index, len(key), 0))
	putTerm(r.buf[p:], key, child)
	r.insert(i, p)
}

// putRecord writes a leaf record at b's start and returns its length.
func putRecord(b, key, val []byte) int {
	binary.LittleEndian.PutUint16(b, uint16(len(key)))
	q := 2 + copy(b[2:], key)
	binary.LittleEndian.PutUint16(b[q:], uint16(len(val)))
	return q + 2 + copy(b[q+2:], val)
}

// putTerm writes an index entry at b's start and returns its length.
func putTerm(b, key []byte, child PageID) int {
	binary.LittleEndian.PutUint16(b, uint16(len(key)))
	q := 2 + copy(b[2:], key)
	binary.LittleEndian.PutUint64(b[q:], uint64(child))
	return q + 8
}

// own gives an index Records a slot array of its own, with room for one
// more slot, before a mutator writes its slots: a copy taken before the
// edit reads the old array. A leaf's are its own already.
func (r *Records) own() {
	if r.index {
		r.slots = slices.Grow(slices.Clip(r.slots), 1)
	}
}

// Set replaces record i's value. The old record's bytes stay as they were.
func (r *Records) Set(i int, val []byte) {
	key := r.Key(i)
	r.Delete(i)
	r.Insert(i, key, val)
}

// Delete drops entry i. The keys past the first are fewer, so they still
// share the prefix, and the heads stay.
func (r *Records) Delete(i int) {
	r.image = false
	r.bytes -= len(r.record(i))
	r.own()
	r.slots = slices.Delete(r.slots, i, i+1)
}

// Truncate drops the entries from i on; the prefix and heads stay.
func (r *Records) Truncate(i int) {
	r.image = false
	for j := i; j < len(r.slots); j++ {
		r.bytes -= len(r.record(j))
	}
	r.slots = r.slots[:i]
}

// AppendFrom appends src's entries from i on, copying them into r's buffer:
// the right half of a split, a consolidated victim's entries. r takes src's
// layout: it is empty or already in it.
func (r *Records) AppendFrom(src *Records, i int) {
	need := 0
	for j := i; j < src.Len(); j++ {
		need += len(src.record(j))
	}
	r.index = src.index
	r.room(need)
	p := r.tail - need
	r.slots = slices.Grow(r.slots, src.Len()-i)
	for j := i; j < src.Len(); j++ {
		r.slots = append(r.slots, uint64(p))
		p += copy(r.buf[p:], src.record(j))
	}
	r.reprefix()
}

// room reserves need bytes at the free tail and returns their offset; every
// insert, Set and AppendFrom write through it, and then write the slots. A
// tail without room — always so for a decoded image — first moves the live
// entries into a fresh buffer twice the size they and need take, so the
// copies cost a constant per byte written, however full the node. The heads
// move with their slots.
func (r *Records) room(need int) int {
	r.image = false
	r.own()
	if r.tail+need > len(r.buf) {
		buf, p := make([]byte, 2*(r.bytes+need)), 0
		for i := range r.slots {
			n := copy(buf[p:], r.record(i))
			r.slots[i] = r.slots[i]>>32<<32 | uint64(p)
			p += n
		}
		r.buf, r.tail = buf, p
		if len(r.slots) > 1 { // the prefix, read from the new buffer
			r.pfx = r.Key(1)[:len(r.pfx)]
		} else {
			r.reprefix()
		}
	}
	r.tail += need
	r.bytes += need
	return r.tail - need
}
