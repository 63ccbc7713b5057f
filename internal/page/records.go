package page

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// Records is a resident leaf's records where they sit: in the page image the
// leaf was decoded from, or in a page buffer the leaf owns. One slot per
// record, in key order, holds the record's offset in that buffer, and a
// record is laid out as on the page (u16 key length, key, u16 value length,
// value). So a decode fills the slots and copies nothing, a search reads
// keys in place, and an encode copies each live record once.
//
// Bytes a Records has handed out are never written. A decoded image has no
// free tail, so the first Insert or Set copies the live records into a fresh
// buffer; later records are appended to that buffer's free tail; Delete only
// drops a slot; and a full tail compacts the live records into another fresh
// buffer. A key or value slice taken from a Records therefore stays valid and
// unchanged for as long as it is held, whatever the leaf does next. Every
// slice handed out has cap == len. A Records is not safe for concurrent
// mutation: the tree's leaf latch guards it.
type Records struct {
	buf   []byte
	slots []uint32
	tail  int // first free byte of buf; len(buf) for a decoded image
	bytes int // encoded size of the live records
}

// Len returns the number of records.
func (r *Records) Len() int { return len(r.slots) }

// Key returns record i's key.
func (r *Records) Key(i int) []byte {
	p := int(r.slots[i]) + 2
	e := p + int(binary.LittleEndian.Uint16(r.buf[p-2:]))
	return r.buf[p:e:e]
}

// Val returns record i's value.
func (r *Records) Val(i int) []byte {
	p := int(r.slots[i])
	p += 4 + int(binary.LittleEndian.Uint16(r.buf[p:]))
	e := p + int(binary.LittleEndian.Uint16(r.buf[p-2:]))
	return r.buf[p:e:e]
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

// record returns the encoded bytes of record i.
func (r *Records) record(i int) []byte {
	p := int(r.slots[i])
	k := int(binary.LittleEndian.Uint16(r.buf[p:]))
	return r.buf[p : p+4+k+int(binary.LittleEndian.Uint16(r.buf[p+2+k:]))]
}

// Insert adds (key, val) as record i.
func (r *Records) Insert(i int, key, val []byte) {
	p := r.room(EntrySize(Leaf, len(key), len(val)))
	binary.LittleEndian.PutUint16(r.buf[p:], uint16(len(key)))
	q := p + 2 + copy(r.buf[p+2:], key)
	binary.LittleEndian.PutUint16(r.buf[q:], uint16(len(val)))
	copy(r.buf[q+2:], val)
	r.slots = slices.Insert(r.slots, i, uint32(p))
}

// Set replaces record i's value. The old record's bytes stay as they were.
func (r *Records) Set(i int, val []byte) {
	key := r.Key(i)
	r.Delete(i)
	r.Insert(i, key, val)
}

// Delete drops record i.
func (r *Records) Delete(i int) {
	r.bytes -= len(r.record(i))
	r.slots = slices.Delete(r.slots, i, i+1)
}

// Truncate drops the records from i on.
func (r *Records) Truncate(i int) {
	for j := i; j < len(r.slots); j++ {
		r.bytes -= len(r.record(j))
	}
	r.slots = r.slots[:i]
}

// AppendFrom appends src's records from i on, copying them into r's buffer:
// the right half of a split, a consolidated victim's records.
func (r *Records) AppendFrom(src *Records, i int) {
	need := 0
	for j := i; j < src.Len(); j++ {
		need += len(src.record(j))
	}
	r.room(need)
	p := r.tail - need
	for j := i; j < src.Len(); j++ {
		r.slots = append(r.slots, uint32(p))
		p += copy(r.buf[p:], src.record(j))
	}
}

// room reserves need bytes at the free tail and returns their offset. A tail
// without room — always so for a decoded image — first moves the live
// records into a fresh buffer twice the size they and need take, so the
// copies cost a constant per byte written, however full the leaf.
func (r *Records) room(need int) int {
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
