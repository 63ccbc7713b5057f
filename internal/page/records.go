package page

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// Records is a resident node's entries where they sit: in the page image
// the node was decoded from, or in a page buffer the node owns. One slot per
// entry, in key order, holds the entry's offset in that buffer, and an entry
// is laid out as on the page: a leaf's record is u16 key length, key, u16
// value length, value; an index entry is u16 key length, key, u64 child. So
// a decode fills the slots and copies nothing, a search reads keys in place,
// and an encode copies each live entry once.
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
// write a slot either, but give the copy they edit a new slot array, so a
// Records value copied before an edit reads what it read before, and the
// tree hands such copies to latch-free readers (internal/core).
type Records struct {
	buf   []byte
	slots []uint32
	tail  int  // first free byte of buf; len(buf) for a decoded image
	bytes int  // encoded size of the live entries
	image bool // buf is the decoded image and no mutator has run since
	index bool // index entries (u64 child), copy-on-write slots
}

// Untouched reports whether r still reads the image UnmarshalInto decoded it
// from and no mutator has run on it since. Every mutator clears it for good.
func (r *Records) Untouched() bool { return r.image }

// Len returns the number of entries.
func (r *Records) Len() int { return len(r.slots) }

// Key returns entry i's key.
func (r *Records) Key(i int) []byte {
	p := int(r.slots[i]) + 2
	e := p + int(binary.LittleEndian.Uint16(r.buf[p-2:]))
	return r.buf[p:e:e]
}

// Val returns leaf record i's value.
func (r *Records) Val(i int) []byte {
	p := int(r.slots[i])
	p += 4 + int(binary.LittleEndian.Uint16(r.buf[p:]))
	e := p + int(binary.LittleEndian.Uint16(r.buf[p-2:]))
	return r.buf[p:e:e]
}

// Child returns index entry i's child.
func (r *Records) Child(i int) PageID {
	p := int(r.slots[i])
	p += 2 + int(binary.LittleEndian.Uint16(r.buf[p:]))
	return PageID(binary.LittleEndian.Uint64(r.buf[p:]))
}

// Search returns the position of the first record whose key is >= key
// under cmp (Len when every key is smaller) and whether that key equals key.
// A nil cmp is the bytewise order, compared without an indirect call.
func (r *Records) Search(cmp func(a, b []byte) int, key []byte) (int, bool) {
	lo, hi := 0, len(r.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if cmp == nil {
			c = bytes.Compare(r.Key(mid), key)
		} else {
			c = cmp(r.Key(mid), key)
		}
		switch {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// Size returns the encoded size of entry i.
func (r *Records) Size(i int) int { return len(r.record(i)) }

// record returns the encoded bytes of entry i.
func (r *Records) record(i int) []byte {
	p := int(r.slots[i])
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
	r.slots = slices.Insert(r.slots, i, uint32(p))
}

// InsertChild adds (key, child) as index entry i.
func (r *Records) InsertChild(i int, key []byte, child PageID) {
	p := r.room(EntrySize(Index, len(key), 0))
	putTerm(r.buf[p:], key, child)
	r.slots = slices.Insert(r.slots, i, uint32(p))
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

// Delete drops entry i.
func (r *Records) Delete(i int) {
	r.image = false
	r.bytes -= len(r.record(i))
	r.own()
	r.slots = slices.Delete(r.slots, i, i+1)
}

// Truncate drops the entries from i on.
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
		r.slots = append(r.slots, uint32(p))
		p += copy(r.buf[p:], src.record(j))
	}
}

// room reserves need bytes at the free tail and returns their offset; every
// insert, Set and AppendFrom write through it, and then write the slots. A
// tail without room — always so for a decoded image — first moves the live
// entries into a fresh buffer twice the size they and need take, so the
// copies cost a constant per byte written, however full the node.
func (r *Records) room(need int) int {
	r.image = false
	r.own()
	if r.tail+need > len(r.buf) {
		buf, p := make([]byte, 2*(r.bytes+need)), 0
		for i := range r.slots {
			n := copy(buf[p:], r.record(i))
			r.slots[i] = uint32(p)
			p += n
		}
		r.buf, r.tail = buf, p
	}
	r.tail += need
	r.bytes += need
	return r.tail - need
}
