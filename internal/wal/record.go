// Package wal implements a write-ahead log with multi-level recovery (MLR,
// Lomet SIGMOD'92), the recovery substrate the paper assumes (§2.1):
//
//	"Structure modifications are recovered first, restoring the B-link-tree
//	 to a well-formed state prior to the recovery of transactional
//	 operations that require a well-formed B-link-tree."
//
// Concretely:
//
//   - Structure modifications (half split, index-term post, node delete,
//     root grow/shrink) are system-level atomic actions. Each is logged as a
//     single record carrying the after-images of every page it touched plus
//     its allocator operations, so an SMO is atomic by construction: it is
//     either entirely in the log or entirely absent. SMOs are never undone.
//     A bulk load is the exception in size only: its chunk records carry
//     allocations, its pages are forced to the store before its commit
//     record is written, and the commit record makes the session happen.
//   - User record operations (insert/delete/update of a record) are logged
//     physiologically — against the page that held the record — with undo
//     information and a per-transaction backchain (PrevLSN).
//   - A page's first change after a checkpoint carries the page's
//     after-image in its record (an SMO's images, or a TRecOp's Images);
//     a change that is otherwise unlogged gets an image-only TRecOp. So
//     every page a post-checkpoint write-back can tear has an intact image
//     inside the redo window, and no recovery reads below the checkpoint.
//   - Redo replays both kinds in LSN order guarded by the page LSN test.
//     After redo the tree is exactly as it was at the crash, in particular
//     well-formed. Undo then rolls back loser transactions *logically*
//     through ordinary tree operations, logging compensation records (CLRs)
//     whose UndoNext pointers make repeated crashes during undo safe.
//
// The paper's delete states D_X/D_D and the to-do queue are volatile and
// deliberately absent from the log (§4.1.3): a crash "drains" all delete
// state, and lost index postings are re-discovered by side traversals.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"blinktree/internal/page"
)

// LSN is a log sequence number. LSNs are assigned densely starting at 1;
// 0 means "no LSN".
type LSN uint64

// Type identifies a log record type.
type Type uint8

// Log record types.
const (
	// TBegin marks the start of a user transaction.
	TBegin Type = iota + 1
	// TCommit marks a committed user transaction.
	TCommit
	// TAbort marks a fully rolled-back user transaction.
	TAbort
	// TRecOp is a physiological user record operation with undo info. On
	// a page's first change after a checkpoint it also carries the page's
	// after-image (Images), which redo applies in place of the operation;
	// Op zero marks an image-only record, for a change nothing else logs.
	TRecOp
	// TSMO is an atomic structure modification with full page after-images.
	TSMO
	// TCheckpoint is a sharp checkpoint: all dirty pages were flushed
	// before it was written; redo may start here.
	TCheckpoint
)

// String returns a short name for the record type.
func (t Type) String() string {
	switch t {
	case TBegin:
		return "BEGIN"
	case TCommit:
		return "COMMIT"
	case TAbort:
		return "ABORT"
	case TRecOp:
		return "RECOP"
	case TSMO:
		return "SMO"
	case TCheckpoint:
		return "CKPT"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Op identifies a user record operation.
type Op uint8

// Record operations.
const (
	// OpInsert adds a record. Undo is delete.
	OpInsert Op = iota + 1
	// OpDelete removes a record. Undo is insert of OldVal.
	OpDelete
	// OpUpdate replaces a record's value. Undo restores OldVal.
	OpUpdate
)

// String returns a short name for the operation.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// SMOKind identifies the structure modification captured by a TSMO record.
type SMOKind uint8

// Structure modification kinds (paper §3.2).
const (
	// SMOSplit is the first half split: contents divided, side pointer set.
	SMOSplit SMOKind = iota + 1
	// SMOPost is the second half split: index term posted to the parent.
	SMOPost
	// SMOConsolidate is a node delete: contents merged into left sibling,
	// index term removed, node deallocated.
	SMOConsolidate
	// SMOGrow adds a new root above the old one.
	SMOGrow
	// SMOShrink removes a root that has a single child.
	SMOShrink
	// SMOFormat initializes a fresh tree (root allocation).
	SMOFormat
	// SMODrainMark is the drain comparator's extra update that marks a
	// page empty prior to deletion (§1.3 point 2: "Extra updates lead to
	// extra logging"). The paper's method never writes this record.
	SMODrainMark
	// SMOBulkChunk carries one chunk of a bulk load: the allocations of a
	// contiguous run of freshly built nodes — no images, the pages reach
	// the store through the buffer pool and are forced before the commit
	// record is written. Chunk records share a session ID in Txn: recovery
	// replays their allocations if a SMOBulkCommit with the same session
	// ID made it into the log, and releases them if none did, which is
	// what keeps a multi-record load all-or-nothing. (Records written
	// before PR 21 also carry after-images; redo still applies them.)
	SMOBulkChunk
	// SMOBulkCommit completes a bulk-load session: it names the new root,
	// deallocates the old one, and its presence in the durable log is the
	// commit point that makes every SMOBulkChunk of the same session
	// (matched via Txn) redoable. It is appended only after every page of
	// the session is durable in the store.
	SMOBulkCommit
)

// String returns a short name for the SMO kind.
func (k SMOKind) String() string {
	switch k {
	case SMOSplit:
		return "split"
	case SMOPost:
		return "post"
	case SMOConsolidate:
		return "consolidate"
	case SMOGrow:
		return "grow"
	case SMOShrink:
		return "shrink"
	case SMOFormat:
		return "format"
	case SMODrainMark:
		return "drain-mark"
	case SMOBulkChunk:
		return "bulk-chunk"
	case SMOBulkCommit:
		return "bulk-commit"
	default:
		return fmt.Sprintf("smo(%d)", uint8(k))
	}
}

// PageImage is the full after-image of one page within an SMO record, or
// within a TRecOp that is its page's first change after a checkpoint.
type PageImage struct {
	ID   page.PageID
	Data []byte // exactly one page
}

// ActiveTxn is a live-transaction entry in a checkpoint record.
type ActiveTxn struct {
	ID      uint64
	LastLSN LSN
}

// Record is one write-ahead log record. Fields are populated according to
// Type; unused fields are zero.
type Record struct {
	LSN  LSN
	Type Type

	// Txn and PrevLSN form the per-transaction backchain used by undo.
	Txn     uint64
	PrevLSN LSN

	// TRecOp fields. A compensation record (CLR) has CLR set and UndoNext
	// pointing at the next record of the same transaction still to undo.
	// OldVal is set only where undo can read it: on a transaction's own
	// (non-CLR) update or delete. A TRecOp may also carry Images (see TRecOp).
	Op       Op
	Page     page.PageID
	Key      []byte
	Val      []byte
	OldVal   []byte
	CLR      bool
	UndoNext LSN

	// TSMO fields (Images also on a page's first TRecOp after a checkpoint).
	SMO      SMOKind
	Images   []PageImage
	Allocs   []page.PageID
	Deallocs []page.PageID

	// Root records the tree's root page after this record, for TSMO kinds
	// that move the root (format, grow, shrink) and for TCheckpoint.
	// Recovery re-derives the volatile root pointer from the last one seen.
	Root page.PageID

	// TCheckpoint fields. A checkpoint record also carries, in Txn, the
	// highest transaction ID handed out before it, so that analysis that
	// starts at the record (see Master) never reissues an ID.
	Active []ActiveTxn
}

// Errors from record encoding/decoding.
var (
	// ErrBadRecord is returned for framing or checksum failures.
	ErrBadRecord = errors.New("wal: bad record")
)

var recCRC = crc32.MakeTable(crc32.Castagnoli)

// putU64 appends a little-endian u64 field, putBytes a length-prefixed one.
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func putBytes(b, v []byte) []byte {
	b = putU64(b, uint64(len(v)))
	return append(b, v...)
}

type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.b) {
		d.err = fmt.Errorf("%w: truncated u64 at %d", ErrBadRecord, d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

// count decodes an element count that the bytes left can hold, at size each.
func (d *decoder) count(size int) int {
	n := d.u64()
	if d.err == nil && n > uint64((len(d.b)-d.pos)/size) {
		d.err = fmt.Errorf("%w: count %d at %d", ErrBadRecord, n, d.pos)
		return 0
	}
	return int(n)
}

// bytes decodes a length-prefixed byte field. Zero length decodes to nil:
// the log does not distinguish empty from absent byte fields.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := make([]byte, n)
	copy(v, d.b[d.pos:d.pos+n])
	d.pos += n
	return v
}

// putImages appends a count-prefixed list of page images.
func putImages(b []byte, ims []PageImage) []byte {
	b = putU64(b, uint64(len(ims)))
	for _, im := range ims {
		b = putU64(b, uint64(im.ID))
		b = putBytes(b, im.Data)
	}
	return b
}

// images decodes a list written by putImages.
func (d *decoder) images() []PageImage {
	var ims []PageImage
	n := d.count(16)
	for i := 0; i < n && d.err == nil; i++ {
		id := page.PageID(d.u64())
		ims = append(ims, PageImage{ID: id, Data: d.bytes()})
	}
	return ims
}

// TRecOp flag bits. A record written before first-change images existed
// has flagImages clear and decodes exactly as it always did.
const (
	flagCLR    = 1 << 0
	flagImages = 1 << 1
)

// Encode serializes r (without framing; the Log adds length+crc framing).
func (r *Record) Encode() []byte { return r.AppendEncode(nil) }

// AppendEncode appends r's serialization to b and returns the extended
// slice: the Log encodes each record straight into its tail this way.
func (r *Record) AppendEncode(b []byte) []byte {
	b = append(b, byte(r.Type))
	b = putU64(b, uint64(r.LSN))
	b = putU64(b, r.Txn)
	b = putU64(b, uint64(r.PrevLSN))
	switch r.Type {
	case TRecOp:
		b = append(b, byte(r.Op))
		var flags byte
		if r.CLR {
			flags |= flagCLR
		}
		if len(r.Images) > 0 {
			flags |= flagImages
		}
		b = append(b, flags)
		b = putU64(b, uint64(r.Page))
		b = putU64(b, uint64(r.UndoNext))
		b = putBytes(b, r.Key)
		b = putBytes(b, r.Val)
		b = putBytes(b, r.OldVal)
		if len(r.Images) > 0 {
			b = putImages(b, r.Images)
		}
	case TSMO:
		b = append(b, byte(r.SMO))
		b = putU64(b, uint64(r.Root))
		b = putImages(b, r.Images)
		b = putU64(b, uint64(len(r.Allocs)))
		for _, id := range r.Allocs {
			b = putU64(b, uint64(id))
		}
		b = putU64(b, uint64(len(r.Deallocs)))
		for _, id := range r.Deallocs {
			b = putU64(b, uint64(id))
		}
	case TCheckpoint:
		b = putU64(b, uint64(r.Root))
		b = putU64(b, uint64(len(r.Active)))
		for _, a := range r.Active {
			b = putU64(b, a.ID)
			b = putU64(b, uint64(a.LastLSN))
		}
	}
	return b
}

// DecodeRecord parses a record serialized by Encode.
func DecodeRecord(b []byte) (*Record, error) {
	if len(b) < 1+24 {
		return nil, fmt.Errorf("%w: too short (%d)", ErrBadRecord, len(b))
	}
	r := &Record{Type: Type(b[0])}
	d := &decoder{b: b, pos: 1}
	r.LSN = LSN(d.u64())
	r.Txn = d.u64()
	r.PrevLSN = LSN(d.u64())
	switch r.Type {
	case TBegin, TCommit, TAbort:
		// header only
	case TRecOp:
		if d.pos+2 > len(d.b) {
			return nil, fmt.Errorf("%w: truncated recop", ErrBadRecord)
		}
		r.Op = Op(d.b[d.pos])
		flags := d.b[d.pos+1]
		d.pos += 2
		if flags&^(flagCLR|flagImages) != 0 {
			return nil, fmt.Errorf("%w: unknown recop flags %#x", ErrBadRecord, flags)
		}
		r.CLR = flags&flagCLR != 0
		r.Page = page.PageID(d.u64())
		r.UndoNext = LSN(d.u64())
		r.Key = d.bytes()
		r.Val = d.bytes()
		r.OldVal = d.bytes()
		if flags&flagImages != 0 {
			if r.Images = d.images(); d.err == nil && len(r.Images) == 0 {
				return nil, fmt.Errorf("%w: recop image flag without images", ErrBadRecord)
			}
		}
	case TSMO:
		if d.pos+1 > len(d.b) {
			return nil, fmt.Errorf("%w: truncated smo", ErrBadRecord)
		}
		r.SMO = SMOKind(d.b[d.pos])
		d.pos++
		r.Root = page.PageID(d.u64())
		r.Images = d.images()
		nAllocs := d.count(8)
		for i := 0; i < nAllocs && d.err == nil; i++ {
			r.Allocs = append(r.Allocs, page.PageID(d.u64()))
		}
		nDeallocs := d.count(8)
		for i := 0; i < nDeallocs && d.err == nil; i++ {
			r.Deallocs = append(r.Deallocs, page.PageID(d.u64()))
		}
	case TCheckpoint:
		r.Root = page.PageID(d.u64())
		n := d.count(16)
		for i := 0; i < n && d.err == nil; i++ {
			id := d.u64()
			last := LSN(d.u64())
			r.Active = append(r.Active, ActiveTxn{ID: id, LastLSN: last})
		}
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadRecord, b[0])
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(b)-d.pos)
	}
	return r, nil
}

// Master is the log's master record: the position (a byte offset into the
// frame stream) and LSN of a checkpoint record with no active transaction.
// What recovery needs from before one is in it or in the flushed pages, so
// an open reads from Pos on. Log.Checkpoint writes it; a Device stores it.
type Master struct {
	Pos int64
	LSN LSN
}

// Encode serializes m as one frame holding the position and the LSN.
func (m Master) Encode() []byte {
	return appendFrame(nil, func(b []byte) []byte { return putU64(putU64(b, uint64(m.Pos)), uint64(m.LSN)) })
}

// DecodeMaster parses a master record serialized by Encode.
func DecodeMaster(b []byte) (Master, error) {
	p, err := unframe(b)
	if err != nil || len(p) != 16 || p[7] > 0x7f { // 0x7f: a negative position
		return Master{}, fmt.Errorf("%w: master record", ErrBadRecord)
	}
	return Master{int64(binary.LittleEndian.Uint64(p)), LSN(binary.LittleEndian.Uint64(p[8:]))}, nil
}

// String renders a compact human-readable form, used by blinkdump.
func (r *Record) String() string {
	switch r.Type {
	case TRecOp:
		clr := ""
		if r.CLR {
			clr = " CLR"
		}
		if len(r.Images) > 0 {
			clr += " image"
		}
		return fmt.Sprintf("%d %s%s txn=%d prev=%d page=%d %s key=%q",
			r.LSN, r.Type, clr, r.Txn, r.PrevLSN, r.Page, r.Op, r.Key)
	case TSMO:
		return fmt.Sprintf("%d SMO %s pages=%d allocs=%v deallocs=%v",
			r.LSN, r.SMO, len(r.Images), r.Allocs, r.Deallocs)
	case TCheckpoint:
		return fmt.Sprintf("%d CKPT active=%d maxtxn=%d", r.LSN, len(r.Active), r.Txn)
	default:
		return fmt.Sprintf("%d %s txn=%d prev=%d", r.LSN, r.Type, r.Txn, r.PrevLSN)
	}
}
