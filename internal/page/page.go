// Package page defines the serialized form of B-link-tree nodes.
//
// Following the paper (§2.1), nodes are Pi-tree style: every node carries an
// explicit key-space description — a low fence key (inclusive) and a high
// fence key (exclusive) — and the side pointer together with the high fence
// key forms a complete index term for the right sibling. That is what lets a
// side traversal re-discover a missing index term with no extra access
// (§2.3): the traverser already has both the sibling's address and its key
// space.
//
// Parent-of-leaf nodes additionally persist their data-delete-state counter
// D_D (§4.1.2): keeping D_D in the node means it survives cache eviction, so
// fewer index postings are aborted after the parent is re-fetched.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PageID identifies a page in the underlying store. Zero is never a valid
// page: it doubles as the nil pointer.
type PageID uint64

// InvalidPage is the nil page pointer.
const InvalidPage PageID = 0

// Kind discriminates leaf (data) nodes from index (internal) nodes.
type Kind uint8

// Node kinds.
const (
	// Leaf nodes hold user records. The paper calls these data nodes.
	Leaf Kind = iota + 1
	// Index nodes hold separator keys and child pointers.
	Index
)

// String returns "leaf" or "index".
func (k Kind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Index:
		return "index"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Content is the serializable state of one node. It is deliberately free of
// any synchronization state: latches, pins and to-do bookkeeping are volatile
// and live in the in-memory node wrapper (internal/core).
type Content struct {
	ID    PageID
	Kind  Kind
	Level uint8 // 0 for leaves, parent-of-leaf is 1
	LSN   uint64

	// Right is the side pointer; InvalidPage when this node is the
	// rightmost at its level. The side link's key-space description is
	// High: the right sibling covers [High, <right sibling's High>).
	Right PageID

	// DD is the data-delete-state counter D_D. Meaningful only for
	// parent-of-leaf nodes (Level == 1); persisted so that it survives
	// cache eviction (§4.1.2 reason 1).
	DD uint64

	// Epoch is the node's incarnation number, assigned at allocation and
	// never changed. Remembered node references carry (ID, Epoch) pairs;
	// a structure modification that finds a different epoch under a
	// remembered ID knows the ID was deallocated and recycled, and aborts.
	// This closes a narrow ABA window left by the delete-state counters
	// alone (a victim observed via a cousin's side pointer after the D_X
	// increment); see DESIGN.md.
	Epoch uint64

	// Low is the inclusive low fence; empty means -inf for the leftmost
	// node of a level. High is the exclusive high fence; nil means +inf.
	Low  []byte
	High []byte

	// Compress requests fence-key prefix compression when this content is
	// marshaled (index nodes only). Under bytewise key ordering every key k
	// in an index node satisfies Low <= k < High, which forces k to carry
	// the common byte prefix of Low and High; Marshal stores keys with that
	// prefix stripped and Unmarshal reconstructs them, so the compression
	// is invisible above this package. The field is volatile intent, not
	// serialized state: the tree sets it only under the default bytewise
	// comparator (a custom comparator does not guarantee the prefix
	// property) and Unmarshal sets it when the image's flag bit says the
	// keys were stored stripped.
	Compress bool

	// Keys are the separator keys of an index page, sorted. A leaf's
	// records are in Recs once decoded; Keys and Vals are the form a
	// writer may build a new leaf in for Marshal (the bulk load does), and
	// a leaf uses one form or the other, never both.
	Keys [][]byte
	// Vals holds the record values of a leaf built in that form.
	Vals [][]byte
	// Children holds child pointers; used only when Kind == Index.
	// Children[i] covers [Keys[i], Keys[i+1]) with Children[len-1]
	// covering [Keys[len-1], High). An index node with n keys has n
	// children; the node's Low equals Keys[0].
	Children []PageID
	// Recs holds a decoded or resident leaf's records in place.
	Recs Records
}

// Serialization layout (little endian):
//
//	offset  size  field
//	0       4     magic "BLNK"
//	4       4     crc32 (castagnoli) of bytes [8:used]
//	8       1     kind
//	9       1     level
//	10      2     flags (bit 0: High present)
//	12      8     page id
//	20      8     LSN
//	28      8     right sibling
//	36      8     D_D
//	44      8     epoch
//	52      2     key count
//	54      2     low fence length
//	56      2     high fence length
//	58      ...   low fence, high fence, then per entry:
//	               u16 keyLen, key, then (leaf) u16 valLen, val
//	                                   or (index) u64 child
const (
	headerSize = 58
	magic      = "BLNK"
	// flagHasHigh distinguishes an absent high fence (+inf) from an empty
	// one; flagPrefix marks an index page whose keys are stored with the
	// common prefix of Low and High stripped (see Content.Compress).
	flagHasHigh = 1 << 0
	flagPrefix  = 1 << 1
	maxEntryLen = 0xFFFF
	offCRC      = 4
	offKind     = 8
	offLevel    = 9
	offFlags    = 10
	offID       = 12
	offLSN      = 20
	offRight    = 28
	offDD       = 36
	offEpoch    = 44
	offKeyCount = 52
	offLowLen   = 54
	offHighLen  = 56
	offPayload  = headerSize
	crcStart    = offKind
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by Marshal and Unmarshal.
var (
	// ErrTooLarge means the content does not fit in the page size.
	ErrTooLarge = errors.New("page: content exceeds page size")
	// ErrCorrupt means the buffer fails structural or checksum validation.
	ErrCorrupt = errors.New("page: corrupt page image")
)

// PrefixLen returns the number of leading key bytes elided per key when c
// is marshaled: the length of the common byte prefix of Low and High when
// compression is requested and applicable, zero otherwise. Compression needs
// a finite key space on both sides — a node with High == nil (+inf) or an
// empty Low (-inf) has no shared prefix to exploit.
func (c *Content) PrefixLen() int {
	if !c.Compress || c.Kind != Index || c.High == nil || len(c.Low) == 0 {
		return 0
	}
	return commonPrefix(c.Low, c.High)
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Size returns the number of bytes c occupies when marshaled. The tree uses
// this for occupancy decisions (split when full, consolidate when
// under-utilized). With prefix compression in effect the size reflects the
// stripped keys, so occupancy decisions see the real on-page density.
func (c *Content) Size() int {
	n := headerSize + len(c.Low) + len(c.High) + c.Recs.bytes
	for i, k := range c.Keys {
		n += 2 + len(k)
		if c.Kind == Leaf {
			n += 2 + len(c.Vals[i])
		} else {
			n += 8
		}
	}
	return n - len(c.Keys)*c.PrefixLen()
}

// EntrySize returns the marshaled size of one entry with the given key and
// value lengths (vlen is ignored for index nodes, which store a fixed-size
// child pointer).
func EntrySize(kind Kind, klen, vlen int) int {
	if kind == Leaf {
		return 2 + klen + 2 + vlen
	}
	return 2 + klen + 8
}

// Marshal serializes c into a buffer of exactly pageSize bytes.
func Marshal(c *Content, pageSize int) ([]byte, error) {
	buf := make([]byte, pageSize)
	if err := MarshalInto(c, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// MarshalInto serializes c into buf, whose length is the page size: the
// bytes Marshal returns, the unused tail zeroed, so a caller can encode
// many pages into one reused buffer.
func MarshalInto(c *Content, buf []byte) error {
	if err := c.validate(); err != nil {
		return err
	}
	if need := c.Size(); need > len(buf) {
		return fmt.Errorf("%w: need %d, page %d", ErrTooLarge, need, len(buf))
	}
	cp := c.PrefixLen()
	if cp > 0 {
		// Every key must carry the prefix: guaranteed by the fence
		// invariant Low <= k < High under bytewise ordering, which is the
		// only ordering the tree sets Compress under. A violation here
		// means the caller compressed under a comparator that does not
		// preserve the prefix property.
		for i, k := range c.Keys {
			if len(k) < cp || string(k[:cp]) != string(c.Low[:cp]) {
				return fmt.Errorf("page: key %d lacks fence prefix under compression", i)
			}
		}
	}
	copy(buf[0:4], magic)
	buf[offKind] = byte(c.Kind)
	buf[offLevel] = c.Level
	var flags uint16
	if c.High != nil {
		flags |= flagHasHigh
	}
	if cp > 0 {
		flags |= flagPrefix
	}
	binary.LittleEndian.PutUint16(buf[offFlags:], flags)
	binary.LittleEndian.PutUint64(buf[offID:], uint64(c.ID))
	binary.LittleEndian.PutUint64(buf[offLSN:], c.LSN)
	binary.LittleEndian.PutUint64(buf[offRight:], uint64(c.Right))
	binary.LittleEndian.PutUint64(buf[offDD:], c.DD)
	binary.LittleEndian.PutUint64(buf[offEpoch:], c.Epoch)
	binary.LittleEndian.PutUint16(buf[offKeyCount:], uint16(len(c.Keys)+c.Recs.Len()))
	binary.LittleEndian.PutUint16(buf[offLowLen:], uint16(len(c.Low)))
	binary.LittleEndian.PutUint16(buf[offHighLen:], uint16(len(c.High)))

	p := offPayload
	p += copy(buf[p:], c.Low)
	p += copy(buf[p:], c.High)
	for i, k := range c.Keys {
		k = k[cp:] // stored stripped when compression is in effect (cp == 0 otherwise)
		binary.LittleEndian.PutUint16(buf[p:], uint16(len(k)))
		p += 2
		p += copy(buf[p:], k)
		if c.Kind == Leaf {
			v := c.Vals[i]
			binary.LittleEndian.PutUint16(buf[p:], uint16(len(v)))
			p += 2
			p += copy(buf[p:], v)
		} else {
			binary.LittleEndian.PutUint64(buf[p:], uint64(c.Children[i]))
			p += 8
		}
	}
	for i := range c.Recs.slots {
		p += copy(buf[p:], c.Recs.record(i))
	}
	clear(buf[p:])
	binary.LittleEndian.PutUint32(buf[offCRC:], crc32.Checksum(buf[crcStart:p], castagnoli))
	return nil
}

// Unmarshal parses a page image produced by Marshal; see UnmarshalInto.
func Unmarshal(buf []byte) (*Content, error) {
	c := new(Content)
	if err := UnmarshalInto(c, buf); err != nil {
		return nil, err
	}
	return c, nil
}

// UnmarshalInto parses a page image produced by Marshal into c and takes
// ownership of buf: the caller must not modify it afterwards, and the decoder
// writes nothing. A leaf's records are decoded in place, a Records over buf,
// so its decode is the checksum, one walk that fills the slots and a copy of
// the fences. An index page's fences and keys — prefix-compressed keys
// rebuilt in full — are copied into one dense arena, so its search touches
// contiguous memory and the node does not retain its image. Every slice has
// cap == len and none may be written through, which is what lets slices move
// between nodes (split, consolidate), into WAL records and into route
// snapshots without copying. The one sanctioned reuse of buf: once a leaf is
// dropped while c.Recs is still Untouched, nothing it handed out outlives its
// readers, and the buffer pool reads the next page into buf (DESIGN.md §4b).
func UnmarshalInto(c *Content, buf []byte) error {
	if len(buf) < headerSize || string(buf[0:4]) != magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	*c = Content{
		Kind:  Kind(buf[offKind]),
		Level: buf[offLevel],
		ID:    PageID(binary.LittleEndian.Uint64(buf[offID:])),
		LSN:   binary.LittleEndian.Uint64(buf[offLSN:]),
		Right: PageID(binary.LittleEndian.Uint64(buf[offRight:])),
		DD:    binary.LittleEndian.Uint64(buf[offDD:]),
		Epoch: binary.LittleEndian.Uint64(buf[offEpoch:]),
	}
	if c.Kind != Leaf && c.Kind != Index {
		return fmt.Errorf("%w: kind %d", ErrCorrupt, c.Kind)
	}
	flags := binary.LittleEndian.Uint16(buf[offFlags:])
	if flags&^(flagHasHigh|flagPrefix) != 0 {
		return fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
	}
	nkeys := int(binary.LittleEndian.Uint16(buf[offKeyCount:]))
	lowLen := int(binary.LittleEndian.Uint16(buf[offLowLen:]))
	highLen := int(binary.LittleEndian.Uint16(buf[offHighLen:]))
	if flags&flagHasHigh == 0 && highLen != 0 {
		return fmt.Errorf("%w: high length without flag", ErrCorrupt)
	}
	entries := offPayload + lowLen + highLen
	if entries > len(buf) {
		return fmt.Errorf("%w: truncated fence keys", ErrCorrupt)
	}
	c.Low = buf[offPayload : offPayload+lowLen : offPayload+lowLen]
	if flags&flagHasHigh != 0 {
		c.High = buf[offPayload+lowLen : entries : entries]
	}
	cp := 0
	if flags&flagPrefix != 0 {
		c.Compress = true
		if cp = c.PrefixLen(); cp == 0 {
			return fmt.Errorf("%w: prefix flag on incompressible page", ErrCorrupt)
		}
	}

	// One walk bounds-checks every length before anything is sliced by it,
	// sizes an index page's arena and fills a leaf's slots. The checksum
	// covers exactly the bytes walked.
	var slots []uint32
	if c.Kind == Leaf {
		slots = make([]uint32, nkeys)
	}
	arenaLen, p := lowLen+highLen, entries
	for i := 0; i < nkeys; i++ {
		if p+2 > len(buf) {
			return fmt.Errorf("%w: truncated key length at offset %d", ErrCorrupt, p)
		}
		klen := int(binary.LittleEndian.Uint16(buf[p:]))
		if cp+klen > maxEntryLen {
			return fmt.Errorf("%w: key %d longer than %d", ErrCorrupt, i, maxEntryLen)
		}
		if c.Kind == Index {
			arenaLen += cp + klen
			p += 2 + klen + 8
			continue
		}
		slots[i] = uint32(p)
		if p += 2 + klen; p+2 > len(buf) {
			return fmt.Errorf("%w: truncated value length at offset %d", ErrCorrupt, p)
		}
		p += 2 + int(binary.LittleEndian.Uint16(buf[p:]))
	}
	if p > len(buf) {
		return fmt.Errorf("%w: entries run past the page end", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(buf[offCRC:])
	if got := crc32.Checksum(buf[crcStart:p], castagnoli); got != want {
		return fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	// The fences, and an index page's keys, are copied into one arena: what
	// a node keeps of its image is its records, and only while unwritten.
	arena := make([]byte, arenaLen)
	a := copy(arena, c.Low)
	c.Low = arena[:a:a]
	if c.High != nil {
		b := a + copy(arena[a:], c.High)
		c.High, a = arena[a:b:b], b
	}
	if c.Kind == Leaf {
		c.Recs = Records{buf: buf, slots: slots, tail: len(buf), bytes: p - entries, image: true}
		return nil
	}

	// Second walk, index pages only: the lengths are the ones just validated.
	c.Keys, c.Children = make([][]byte, nkeys), make([]PageID, nkeys)
	p = entries
	for i := range c.Keys {
		klen := int(binary.LittleEndian.Uint16(buf[p:]))
		p += 2
		b := a
		if cp > 0 {
			b += copy(arena[a:], c.Low[:cp]) // the elided fence prefix
		}
		b += copy(arena[b:], buf[p:p+klen])
		c.Keys[i], a = arena[a:b:b], b
		c.Children[i] = PageID(binary.LittleEndian.Uint64(buf[p+klen:]))
		p += klen + 8
	}
	return nil
}

// validate checks structural consistency before marshaling.
func (c *Content) validate() error {
	if c.Kind != Leaf && c.Kind != Index {
		return fmt.Errorf("page: invalid kind %d", c.Kind)
	}
	if c.Kind == Leaf && len(c.Vals) != len(c.Keys) {
		return fmt.Errorf("page: leaf with %d keys, %d vals", len(c.Keys), len(c.Vals))
	}
	if c.Recs.Len() > 0 && (len(c.Keys) > 0 || c.Kind == Index) {
		return fmt.Errorf("page: %s with records in two forms", c.Kind)
	}
	if c.Kind == Index && len(c.Children) != len(c.Keys) {
		return fmt.Errorf("page: index with %d keys, %d children", len(c.Keys), len(c.Children))
	}
	if len(c.Keys)+c.Recs.Len() > maxEntryLen {
		return fmt.Errorf("page: too many keys (%d)", len(c.Keys)+c.Recs.Len())
	}
	if len(c.Low) > maxEntryLen || len(c.High) > maxEntryLen {
		return fmt.Errorf("page: fence key too long")
	}
	for i, k := range c.Keys {
		if len(k) > maxEntryLen {
			return fmt.Errorf("page: key %d too long (%d)", i, len(k))
		}
		if c.Kind == Leaf && len(c.Vals[i]) > maxEntryLen {
			return fmt.Errorf("page: value %d too long (%d)", i, len(c.Vals[i]))
		}
	}
	return nil
}
