package core

import (
	"bytes"
	"fmt"
	"time"

	"blinktree/internal/obs"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

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
	// otherwise it is the wal.Why* reason the master record was unusable.
	// Redo never needs more than the window after the last checkpoint.
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
	// redo work: full page after-images installed in the buffer pool,
	// allocations and deallocations replayed.
	ImagesApplied    int
	AllocsReplayed   int
	DeallocsReplayed int

	// LosersUndone is the number of unfinished transactions rolled back.
	LosersUndone int

	// BulkChunksSkipped counts bulk-load chunk records not replayed
	// because their session never reached its commit record: the load
	// crashed mid-way, and releasing its chunks' allocations instead is
	// what makes a chunked-logging load all-or-nothing.
	BulkChunksSkipped int

	// CorruptPages counts checksum-failing page images detected during
	// redo (torn writes the crash left behind); each was overwritten by
	// the image its first change since the checkpoint logged.
	CorruptPages int

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
// Redo starts after the last checkpoint, and the records the log read at
// open may start there too. A torn page — a post-checkpoint write-back the
// crash interrupted — needs nothing older: the page's first change after the
// checkpoint logged its after-image, redo meets that record first and, since
// a torn page's LSN reads as zero, installs the image in its place.
//
// Redo works on the buffer pool's nodes with the foreground's own leaf edits
// and writes no page itself: every page it changes is a dirty frame that
// reaches the disk by the WAL rule, at eviction or at a checkpoint.
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

	// Changes from here on (undo's) log images by the same rule as before
	// the crash: relative to the checkpoint this redo window starts after.
	t.ckptLSN.Store(uint64(a.RedoStart) - 1)
	if err := t.redoPass(a.RedoRecords(), a.BulkCommitted); err != nil {
		return false, err
	}
	n, err := t.fetch(root)
	if err != nil {
		return false, fmt.Errorf("blinktree: recovered root %d: %w", root, err)
	}
	t.setAnchor(n, false)
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

// redoPass replays the redoable records in LSN order. bulkCommitted gates
// SMOBulkChunk records: a session with no durable commit record crashed
// before its commit point, and its chunks' allocations are released — the
// load's pre-commit store Sync may have made them durable — preserving the
// load's all-or-nothing contract without leaking its pages.
func (t *Tree) redoPass(recs []*wal.Record, bulkCommitted map[uint64]bool) error {
	for _, r := range recs {
		var err error
		switch {
		case r.Type == wal.TSMO && r.SMO == wal.SMOBulkChunk && !bulkCommitted[r.Txn]:
			t.recStats.BulkChunksSkipped++
			err = t.redoDeallocs(r.LSN, r.Allocs)
		case r.Type == wal.TSMO:
			t.recStats.SMOsRedone++
			err = t.redoSMO(r)
		case r.Type == wal.TRecOp && len(r.Images) > 0:
			// A page's first change since the checkpoint: its after-image
			// already holds the operation.
			var applied int
			if applied, err = t.redoImages(r); applied > 0 {
				t.recStats.RecOpsRedone++
			}
		case r.Type == wal.TRecOp:
			err = t.redoRecOp(r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// redoSMO applies one atomic structure modification: allocations, page
// after-images (guarded by the page LSN test), then deallocations.
func (t *Tree) redoSMO(r *wal.Record) error {
	for _, id := range r.Allocs {
		if err := t.store.EnsureAllocated(id); err != nil {
			return err
		}
		t.recStats.AllocsReplayed++
	}
	if _, err := t.redoImages(r); err != nil {
		return err
	}
	return t.redoDeallocs(r.LSN, r.Deallocs)
}

// redoImages installs r's page images where the page predates r, and
// returns how many it installed. A torn page needs no special handling: its
// LSN reads as zero, so the logged image simply replaces — and heals — it.
// An installed image is a dirty frame, written back by the WAL rule.
func (t *Tree) redoImages(r *wal.Record) (int, error) {
	applied := 0
	for _, im := range r.Images {
		if err := t.store.EnsureAllocated(im.ID); err != nil {
			return applied, err
		}
		cur, err := t.pageLSN(im.ID)
		if err != nil {
			return applied, err
		}
		if cur >= uint64(r.LSN) {
			t.recStats.SkippedByLSN++
			continue // page already reflects this or a later state
		}
		obj, err := codec{t}.Unmarshal(im.Data)
		if err != nil {
			return applied, err
		}
		if err := t.pool.Insert(im.ID, obj); err != nil {
			return applied, err
		}
		obj.(*node).frame.Unpin(false)
		t.recStats.ImagesApplied++
		applied++
	}
	return applied, nil
}

// redoDeallocs frees the pages a record at lsn deallocated, unless a page
// has since been recycled by a later allocation whose state is on disk.
// Redo holds no pin between records, so the discard never has to wait.
func (t *Tree) redoDeallocs(lsn wal.LSN, ids []page.PageID) error {
	for _, id := range ids {
		if !t.store.Allocated(id) {
			continue
		}
		cur, err := t.pageLSN(id)
		if err != nil {
			return err
		}
		if cur > uint64(lsn) {
			continue
		}
		if _, err := t.pool.DiscardIfUnpinned(id, func() error {
			return t.store.Deallocate(id)
		}); err != nil {
			return err
		}
		t.recStats.DeallocsReplayed++
	}
	return nil
}

// redoRecOp re-applies one physiological record operation to its leaf, in
// the pool and with the foreground's own leaf edits, if the leaf predates it.
func (t *Tree) redoRecOp(r *wal.Record) error {
	if !t.store.Allocated(r.Page) {
		// The page was consolidated away later; the consolidation SMO's
		// images carry the record's final location.
		return nil
	}
	leaf, torn, err := t.redoFetch(r.Page)
	if torn {
		// No earlier record of this window carried the page's image: the
		// first-change rule was broken, or the store lost a synced page.
		return fmt.Errorf("blinktree: page %d torn with no image in the redo window", r.Page)
	}
	if leaf == nil {
		// Allocated but never written: image redo already handled every
		// logged state of the page, so a blank one needs no record redone.
		return err
	}
	if leaf.lsn >= uint64(r.LSN) {
		t.recStats.SkippedByLSN++
		leaf.frame.Unpin(false)
		return nil
	}
	i, found := t.search(&leaf.c().Recs, r.Key)
	switch {
	case found && r.Op == wal.OpDelete:
		leaf.removeLeafAt(i)
	case found:
		leaf.setLeafVal(i, r.Val)
	case r.Op == wal.OpInsert:
		leaf.insertLeafAt(i, r.Key, r.Val)
	}
	leaf.lsn = uint64(r.LSN)
	leaf.frame.Unpin(true)
	t.recStats.RecOpsRedone++
	return nil
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

// pageLSN returns the LSN of a page as redo has left it so far; zero for a
// page never written or torn (checksum-failing). Reporting a torn page as LSN
// zero is what makes image redo self-healing: the image is never skipped, so
// it replaces the torn bytes with logged state.
func (t *Tree) pageLSN(id page.PageID) (uint64, error) {
	n, _, err := t.redoFetch(id)
	if n == nil {
		return 0, err
	}
	defer n.frame.Unpin(false)
	return n.lsn, nil
}

// redoFetch pins id's node from the pool. A page that does not decode gives
// a nil node; only then is the raw page read, and torn reports whether it
// holds a torn write (counted) rather than zeros (allocated, never written).
func (t *Tree) redoFetch(id page.PageID) (n *node, torn bool, err error) {
	if n, err = t.fetch(id); err == nil {
		return n, false, nil
	}
	raw, err := t.store.Read(id)
	if err != nil || bytes.Count(raw, []byte{0}) == len(raw) {
		return nil, false, err
	}
	t.recStats.CorruptPages++
	if t.tracing() {
		t.obs.Emit(obs.Event{Kind: obs.EvRecoveryTornPage, Page: uint64(id)})
	}
	return nil, true, nil
}
