package wal

// Analysis is the result of the recovery analysis pass: where redo must
// start, which transactions committed, and which are losers needing undo.
type Analysis struct {
	// Records is what was analyzed, in LSN order: the whole durable log,
	// or its tail from a checkpoint record with no active transactions.
	Records []*Record
	// RedoStart is the first LSN that redo must consider; records at or
	// before the last sharp checkpoint are already reflected in the pages.
	RedoStart LSN
	// Committed holds the IDs of committed transactions.
	Committed map[uint64]bool
	// Losers maps each unfinished transaction to its last log record LSN,
	// the head of its undo backchain.
	Losers map[uint64]LSN
	// MaxTxn is the highest transaction ID seen (a checkpoint record
	// carries the highest before it); the transaction manager resumes
	// numbering above it.
	MaxTxn uint64
	// BulkCommitted holds the session IDs (Record.Txn) of bulk loads whose
	// SMOBulkCommit record is in the durable log. SMOBulkChunk records of
	// any other session are dead weight from a load that crashed before
	// its commit point: redo must skip them entirely — images AND
	// allocations — so the abandoned pages stay unallocated and invisible.
	BulkCommitted map[uint64]bool
}

// Analyze performs the analysis pass over the durable log.
func Analyze(records []*Record) *Analysis {
	a := &Analysis{
		Records:       records,
		RedoStart:     1,
		Committed:     make(map[uint64]bool),
		Losers:        make(map[uint64]LSN),
		BulkCommitted: make(map[uint64]bool),
	}
	for _, r := range records {
		if r.Txn > a.MaxTxn {
			a.MaxTxn = r.Txn
		}
		if r.Type == TSMO && r.SMO == SMOBulkCommit {
			a.BulkCommitted[r.Txn] = true
		}
		switch r.Type {
		case TCheckpoint:
			// Sharp checkpoint: every page was flushed before this record
			// was written, so redo restarts here. Live transactions are in
			// the record — with one that committed as it was taken, maybe.
			a.RedoStart = r.LSN + 1
			a.Losers = make(map[uint64]LSN, len(r.Active))
			for _, at := range r.Active {
				if !a.Committed[at.ID] {
					a.Losers[at.ID] = at.LastLSN
				}
			}
		case TBegin:
			a.Losers[r.Txn] = r.LSN
		case TRecOp:
			// Txn 0 marks non-transactional (auto-committed) operations;
			// they are redone but never undone.
			if r.Txn != 0 {
				a.Losers[r.Txn] = r.LSN
			}
		case TCommit:
			a.Committed[r.Txn] = true
			delete(a.Losers, r.Txn)
		case TAbort:
			// Fully undone before the crash: nothing left to do.
			delete(a.Losers, r.Txn)
		}
	}
	return a
}

// RedoRecords returns the suffix of the log that the redo pass must apply,
// in LSN order.
func (a *Analysis) RedoRecords() []*Record {
	for i, r := range a.Records {
		if r.LSN >= a.RedoStart {
			return a.Records[i:]
		}
	}
	return nil
}

// UndoChain walks the backchain of one loser transaction from its last
// record, honoring CLR UndoNext pointers, and returns the records still to
// be compensated, newest first.
func (a *Analysis) UndoChain(txn uint64) []*Record {
	byLSN := make(map[LSN]*Record, len(a.Records))
	for _, r := range a.Records {
		byLSN[r.LSN] = r
	}
	var chain []*Record
	cur := a.Losers[txn]
	for cur != 0 {
		r := byLSN[cur]
		if r == nil {
			break
		}
		switch {
		case r.Type == TRecOp && r.CLR:
			// Everything between this CLR and its UndoNext was already
			// compensated before the crash: skip it.
			cur = r.UndoNext
		case r.Type == TRecOp:
			chain = append(chain, r)
			cur = r.PrevLSN
		case r.Type == TBegin:
			cur = 0
		default:
			cur = r.PrevLSN
		}
	}
	return chain
}
