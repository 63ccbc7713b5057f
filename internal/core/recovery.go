package core

import (
	"errors"
	"fmt"
	"time"

	"blinktree/internal/obs"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// errTornPage aborts a checkpoint-bounded redo pass that found a torn page
// image: a page whose on-disk bytes fail the checksum because a power cut
// interrupted a post-checkpoint write-back, destroying the checkpointed
// state that bounded redo depends on. The remedy is a full-log redo — SMO
// records carry complete page after-images, so replaying from LSN 1
// reconstructs every page from scratch (the log is never truncated).
var errTornPage = errors.New("blinktree: torn page detected during checkpoint-bounded redo")

// RecoveryStats reports what crash recovery found and did. The zero value
// (Recovered false) means the tree was not recovered: it was opened fresh,
// or without a log. Observability exporters surface these counters so an
// operator can distinguish a clean restart from a crash recovery, and a
// routine recovery from one that salvaged torn state.
type RecoveryStats struct {
	// Recovered reports whether a recovery ran (the log held records).
	Recovered bool

	// RecordsScanned is the number of log records this open decoded,
	// LogBytesRead the bytes of log they came from and RestartLSN the
	// first of them: after a checkpoint with no open transaction, that
	// checkpoint's, whatever lies before it. FullLogRead is empty then;
	// otherwise it says why the whole log was read: a wal.Why* reason for
	// an unusable master record, or "torn page" when redo needed history.
	RecordsScanned int
	LogBytesRead   int64
	RestartLSN     uint64
	FullLogRead    string
	// RedoStart is the LSN the checkpoint-bounded redo pass started at.
	RedoStart uint64

	// SMOsRedone and RecOpsRedone count log records replayed by the redo
	// pass(es); SkippedByLSN counts record/page encounters skipped because
	// the page already reflected the record (the page-LSN test).
	SMOsRedone   int
	RecOpsRedone int
	SkippedByLSN int

	// ImagesApplied, AllocsReplayed and DeallocsReplayed break down SMO
	// redo work: full page after-images written, allocations and
	// deallocations replayed.
	ImagesApplied    int
	AllocsReplayed   int
	DeallocsReplayed int

	// LosersUndone is the number of unfinished transactions rolled back.
	LosersUndone int

	// BulkChunksSkipped counts bulk-load chunk records ignored because
	// their session never reached its commit record: the load crashed
	// mid-way, and skipping its chunks (images and allocations alike) is
	// what makes a chunked-logging load all-or-nothing.
	BulkChunksSkipped int

	// CorruptPages counts checksum-failing page images detected during
	// redo (torn writes the crash left behind); each was repaired from
	// logged after-images. FullRedoRetries counts redo passes restarted
	// from LSN 1 because a torn page invalidated checkpoint-bounded redo.
	CorruptPages    int
	FullRedoRetries int

	// TornTail reports whether the log device found garbage past its last
	// valid frame (a frame append interrupted by the power cut), and
	// TornTailBytes how many bytes of it. The torn frame was never
	// acknowledged as durable, so discarding it loses nothing.
	TornTail      bool
	TornTailBytes int64
}

// recover rebuilds the tree from the durable log using multi-level recovery
// (§2.1): a physiological redo pass first restores every page — including
// completing all structure modifications, each of which was logged as a
// single atomic record — so the tree is well-formed; only then are loser
// transactions rolled back logically through ordinary tree operations.
//
// Delete state (D_X, D_D-remembered values) and the to-do queue are
// volatile and start empty: a crash drains all delete state (§1.3), and
// lost index postings are re-discovered by side traversals.
//
// Redo normally starts at the last checkpoint, and the records the log read
// at open may start there too. If it encounters a torn page — a
// checksum-failing image whose pre-crash state the bounded pass needed — it
// restarts from LSN 1, over the whole log: every page's first incarnation is
// a full after-image in some SMO record, so the full-log pass self-heals any
// torn page, and the page-LSN test keeps the rework idempotent.
//
// Returns false if the log is empty (the caller formats a fresh tree).
func (t *Tree) recover() (bool, error) {
	t0 := time.Now()
	rs, recs := t.log.Restart()
	if len(recs) == 0 {
		return false, nil
	}
	a := wal.Analyze(recs)
	t.recStats = RecoveryStats{
		Recovered:      true,
		RecordsScanned: len(recs),
		LogBytesRead:   rs.End - rs.Start,
		RestartLSN:     uint64(recs[0].LSN),
		FullLogRead:    rs.Why,
		RedoStart:      uint64(a.RedoStart),
	}
	t.recStats.TornTail, t.recStats.TornTailBytes = t.log.TailTorn()
	if t.recStats.TornTail && t.tracing() {
		t.obs.Emit(obs.Event{Kind: obs.EvRecoveryTornTail, Page: uint64(t.recStats.TornTailBytes)})
	}

	// Track the root pointer across everything read (it may predate the
	// redo window; a checkpoint record carries it).
	var root page.PageID
	for _, r := range recs {
		if r.Root != 0 {
			root = r.Root
		}
	}
	if root == 0 {
		return false, fmt.Errorf("blinktree: log has records but no root (missing format record)")
	}

	// Checkpoint-bounded redo; fall back to full-log redo on a torn page.
	err := t.redoPass(a.RedoRecords(), a.BulkCommitted, false)
	if err == nil {
		err = t.installRoot(root, false)
	}
	if errors.Is(err, errTornPage) {
		t.recStats.FullRedoRetries++
		if rs.Why == "" {
			if recs, err = t.log.DurableRecords(); err != nil {
				return false, err
			}
			a = wal.Analyze(recs)
			t.recStats.RecordsScanned += len(recs)
			t.recStats.LogBytesRead += rs.End
			t.recStats.FullLogRead = "torn page"
		}
		if err = t.redoPass(recs, a.BulkCommitted, true); err == nil {
			err = t.installRoot(root, true)
		}
	}
	if err != nil {
		return false, err
	}
	t.txnSeq.Store(a.MaxTxn)

	// Undo pass: roll back losers through ordinary (well-formed-tree)
	// operations, logging CLRs so a crash during undo resumes correctly.
	for txn := range a.Losers {
		if err := t.undoLoser(a, txn); err != nil {
			return false, err
		}
		t.recStats.LosersUndone++
	}
	if err := t.log.FlushAll(); err != nil {
		return false, err
	}
	if t.tracing() {
		t.obs.Emit(obs.Event{
			Kind: obs.EvRecoveryRedo,
			Page: uint64(t.recStats.SMOsRedone + t.recStats.RecOpsRedone),
			Dur:  time.Since(t0),
		})
	}
	return true, nil
}

// redoPass replays the redoable records in LSN order. full marks a
// full-log pass, in which a torn page is unrepairable (a hard error)
// rather than a reason to widen the redo window. bulkCommitted gates
// SMOBulkChunk records: chunks of a session with no durable commit record
// are from a load that crashed before its commit point and are skipped
// entirely, preserving the load's all-or-nothing contract.
func (t *Tree) redoPass(recs []*wal.Record, bulkCommitted map[uint64]bool, full bool) error {
	for _, r := range recs {
		switch r.Type {
		case wal.TSMO:
			if r.SMO == wal.SMOBulkChunk && !bulkCommitted[r.Txn] {
				t.recStats.BulkChunksSkipped++
				continue
			}
			if err := t.redoSMO(r); err != nil {
				return err
			}
			t.recStats.SMOsRedone++
		case wal.TRecOp:
			if err := t.redoRecOp(r, full); err != nil {
				return err
			}
		}
	}
	return nil
}

// installRoot reads the recovered root and publishes it as the anchor. A
// corrupt — or missing — root during the bounded pass means the store fell
// behind the checkpoint that bounded redo (torn write-back, or a store that
// lost pages wholesale); the full-log pass rewrites it from the grow/format
// SMO images.
func (t *Tree) installRoot(root page.PageID, full bool) error {
	n, err := t.fetch(root)
	if err != nil {
		if !full {
			if errors.Is(err, page.ErrCorrupt) {
				t.recStats.CorruptPages++
			}
			return errTornPage
		}
		return fmt.Errorf("blinktree: recovered root %d: %w", root, err)
	}
	t.setAnchor(n, false)
	return nil
}

// redoSMO applies one atomic structure modification: allocations, page
// after-images (guarded by the page LSN test), then deallocations. A torn
// page encountered here needs no special handling: its LSN reads as zero,
// so the logged after-image simply overwrites — and heals — it.
func (t *Tree) redoSMO(r *wal.Record) error {
	for _, id := range r.Allocs {
		if err := t.store.EnsureAllocated(id); err != nil {
			return err
		}
		t.recStats.AllocsReplayed++
	}
	for _, im := range r.Images {
		if err := t.store.EnsureAllocated(im.ID); err != nil {
			return err
		}
		cur, err := t.pageLSN(im.ID)
		if err != nil {
			return err
		}
		if cur >= uint64(r.LSN) {
			t.recStats.SkippedByLSN++
			continue // page already reflects this or a later state
		}
		if err := t.store.Write(im.ID, im.Data); err != nil {
			return err
		}
		t.recStats.ImagesApplied++
	}
	for _, id := range r.Deallocs {
		if !t.store.Allocated(id) {
			continue
		}
		cur, err := t.pageLSN(id)
		if err != nil {
			return err
		}
		if cur > uint64(r.LSN) {
			// The page was recycled by a later allocation whose state is
			// already on disk: do not free it again.
			continue
		}
		if err := t.store.Deallocate(id); err != nil {
			return err
		}
		t.recStats.DeallocsReplayed++
	}
	return nil
}

// redoRecOp re-applies one physiological record operation to its page if
// the page state predates it.
func (t *Tree) redoRecOp(r *wal.Record, full bool) error {
	if !t.store.Allocated(r.Page) {
		// The page was consolidated away later; the consolidation SMO's
		// images carry the record's final location.
		return nil
	}
	raw, err := t.store.Read(r.Page)
	if err != nil {
		return err
	}
	c, err := page.Unmarshal(raw)
	if err != nil {
		if zeroPage(raw) {
			// Allocated but never written (crash between the alloc and the
			// image write-back): the SMO image redo already handled every
			// logged state, so a blank page cannot be this record's target
			// in a state that needs redo.
			return nil
		}
		// Non-blank but checksum-failing: a torn write. Bounded redo
		// cannot trust any page state it did not itself rebuild, so
		// restart from LSN 1 — the full pass rewrites this page from its
		// creating SMO's after-image before reaching this record again.
		t.recStats.CorruptPages++
		if t.tracing() {
			t.obs.Emit(obs.Event{Kind: obs.EvRecoveryTornPage, Page: uint64(r.Page)})
		}
		if full {
			return fmt.Errorf("blinktree: page %d corrupt under full-log redo: %w", r.Page, err)
		}
		return errTornPage
	}
	if c.LSN >= uint64(r.LSN) {
		t.recStats.SkippedByLSN++
		return nil
	}
	applyRecOp(t.cmp, c, r)
	c.LSN = uint64(r.LSN)
	out, err := page.Marshal(c, t.opts.PageSize)
	if err != nil {
		return err
	}
	if err := t.store.Write(r.Page, out); err != nil {
		return err
	}
	t.recStats.RecOpsRedone++
	return nil
}

// applyRecOp applies a record operation to leaf content in place.
func applyRecOp(cmp Compare, c *page.Content, r *wal.Record) {
	i, found := keySearch(cmp, c.Keys, r.Key)
	switch r.Op {
	case wal.OpInsert:
		if found {
			c.Vals[i] = append([]byte(nil), r.Val...)
			return
		}
		c.Keys = append(c.Keys, nil)
		copy(c.Keys[i+1:], c.Keys[i:])
		c.Keys[i] = append([]byte(nil), r.Key...)
		c.Vals = append(c.Vals, nil)
		copy(c.Vals[i+1:], c.Vals[i:])
		c.Vals[i] = append([]byte(nil), r.Val...)
	case wal.OpUpdate:
		if found {
			c.Vals[i] = append([]byte(nil), r.Val...)
		}
	case wal.OpDelete:
		if found {
			c.Keys = append(c.Keys[:i], c.Keys[i+1:]...)
			c.Vals = append(c.Vals[:i], c.Vals[i+1:]...)
		}
	}
}

// undoLoser rolls back one unfinished transaction after redo, walking its
// backchain (skipping already-compensated work via CLR UndoNext pointers)
// and applying inverse operations through normal tree ops.
func (t *Tree) undoLoser(a *wal.Analysis, txn uint64) error {
	chain := a.UndoChain(txn)
	lastLSN := a.Losers[txn]
	for _, r := range chain {
		lp := recOpParams{txn: txn, prevLSN: lastLSN, clr: true, undoNext: r.PrevLSN}
		var lsn wal.LSN
		var err error
		switch r.Op {
		case wal.OpInsert:
			lsn, err = t.deleteInternal(lp, r.Key)
			if err == ErrKeyNotFound {
				err = nil
			}
		case wal.OpDelete:
			lsn, _, err = t.putInternal(lp, r.Key, r.OldVal)
		case wal.OpUpdate:
			lsn, _, err = t.putInternal(lp, r.Key, r.OldVal)
		}
		if err != nil {
			return fmt.Errorf("blinktree: undo txn %d op at LSN %d: %w", txn, r.LSN, err)
		}
		if lsn != 0 {
			lastLSN = lsn
		}
	}
	_, err := t.log.Append(&wal.Record{Type: wal.TAbort, Txn: txn, PrevLSN: lastLSN})
	return err
}

// pageLSN reads the LSN of a page directly from the store; zero for pages
// never written or with a torn (checksum-failing) image. Reporting a torn
// page as LSN zero is what makes SMO image redo self-healing: the image is
// never skipped, so the torn bytes are overwritten with logged state.
func (t *Tree) pageLSN(id page.PageID) (uint64, error) {
	raw, err := t.store.Read(id)
	if err != nil {
		return 0, err
	}
	c, err := page.Unmarshal(raw)
	if err != nil {
		if !zeroPage(raw) {
			t.recStats.CorruptPages++
		}
		return 0, nil
	}
	return c.LSN, nil
}

// zeroPage reports whether a page image is entirely zero bytes (allocated
// but never written), as distinct from a torn write's garbage.
func zeroPage(raw []byte) bool {
	for _, b := range raw {
		if b != 0 {
			return false
		}
	}
	return true
}
