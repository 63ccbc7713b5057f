package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"blinktree/internal/latch"
	"blinktree/internal/lock"
	"blinktree/internal/obs"
	"blinktree/internal/wal"
)

// Transaction errors.
var (
	// ErrTxnDone is returned by operations on a committed or aborted
	// transaction.
	ErrTxnDone = errors.New("blinktree: transaction finished")
	// ErrTxnAborted is returned when the transaction had to be aborted —
	// as a deadlock victim, or because delete state changed during a
	// re-latch (§2.4: "if D_X indicates a node delete has occurred, we can
	// abort the transaction. Such aborts are rare."). The caller's work is
	// rolled back; retry the transaction.
	ErrTxnAborted = errors.New("blinktree: transaction aborted")
)

// Txn is a transaction: strict two-phase record locking (no-wait requests
// under latches, blocking re-requests after latch release), write-ahead
// logged operations with an undo backchain, and rollback on abort.
type Txn struct {
	t    *Tree
	id   uint64
	undo []undoRec
	done bool
	mu   sync.Mutex

	// lastLSN is the transaction's most recent log record (the undo
	// backchain head). Atomic because checkpoints read it without taking
	// the transaction mutex (taking it there could deadlock against an
	// operation blocked on the checkpoint gate).
	lastLSN atomic.Uint64
}

// last returns the transaction's most recent LSN.
func (x *Txn) last() wal.LSN { return wal.LSN(x.lastLSN.Load()) }

// setLast records the transaction's most recent LSN.
func (x *Txn) setLast(l wal.LSN) { x.lastLSN.Store(uint64(l)) }

// undoRec is the in-memory rollback entry for one operation.
type undoRec struct {
	op      wal.Op
	key     []byte
	oldVal  []byte
	lsn     wal.LSN // the operation's own LSN
	prevLSN wal.LSN // backchain: operation before it
}

// activeTxns tracks live transactions for checkpointing.
type activeTxns struct {
	mu sync.Mutex
	m  map[uint64]*Txn
}

// Begin starts a transaction.
func (t *Tree) Begin() (*Txn, error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	x := &Txn{t: t, id: t.txnSeq.Add(1)}
	if t.log != nil {
		lsn, err := t.log.Append(&wal.Record{Type: wal.TBegin, Txn: x.id})
		if err != nil {
			return nil, err
		}
		x.setLast(lsn)
	}
	t.active.mu.Lock()
	t.active.m[x.id] = x
	t.active.mu.Unlock()
	return x, nil
}

// ID returns the transaction identifier.
func (x *Txn) ID() uint64 { return x.id }

func (x *Txn) owner() lock.Owner { return lock.Owner(x.id) }

// finish removes the transaction from the active table and releases locks.
func (x *Txn) finish() {
	x.done = true
	x.t.active.mu.Lock()
	delete(x.t.active.m, x.id)
	x.t.active.mu.Unlock()
	x.t.locks.ReleaseAll(x.owner())
}

// Commit ends the transaction and releases its locks. The durability of
// the acknowledgement follows Options.Durability: under the sync mode it
// follows a log force covering the commit LSN — the calling goroutine's own,
// or one shared with concurrent committers — so a nil return means the
// commit survives any crash; under the periodic and async modes the commit
// is acknowledged as soon as
// its record is appended and becomes durable at the next background force
// or explicit FlushLog/Checkpoint/Close.
func (x *Txn) Commit() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done {
		return ErrTxnDone
	}
	t := x.t
	t0, sp := t.obsBegin(obs.OpCommit)
	if t.log != nil {
		at0 := sp.Now()
		lsn, err := t.log.Append(&wal.Record{Type: wal.TCommit, Txn: x.id, PrevLSN: x.last()})
		sp.StageSince(obs.StageWALAppend, 0, at0)
		if err != nil {
			return err
		}
		if err := t.commitLSN(lsn, sp); err != nil {
			return err
		}
	}
	x.finish()
	t.c.txnCommits.Add(1)
	t.obsEnd(obs.OpCommit, t0, sp)
	return nil
}

// Abort rolls the transaction back: its operations are compensated in
// reverse order (logging CLRs whose UndoNext pointers make crash-during-
// rollback safe), an abort record is written, and locks are released.
func (x *Txn) Abort() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.abortLocked(false)
}

// abortLocked rolls the transaction back. gateHeld says whether the caller
// already holds the checkpoint gate (operations that abort from inside
// lockWithLatch do; the public Abort does not). The compensating writes must
// run under the gate, or a concurrent Checkpoint could flush pages
// mid-mutation — but the gate's stripes are sync.RWMutexes, so it must not
// be re-acquired on the same goroutine.
func (x *Txn) abortLocked(gateHeld bool) error {
	if x.done {
		return ErrTxnDone
	}
	t := x.t
	var g int
	if !gateHeld {
		var err error
		if g, err = t.opBegin(); err != nil {
			return err
		}
	}
	err := func() error {
		if !gateHeld {
			defer t.opEnd(g)
		}
		for i := len(x.undo) - 1; i >= 0; i-- {
			if cerr := t.compensate(x, x.undo[i]); cerr != nil {
				return fmt.Errorf("blinktree: rollback of txn %d: %w", x.id, cerr)
			}
		}
		return nil
	}()
	if err != nil {
		return err
	}
	if t.log != nil {
		if _, err := t.log.Append(&wal.Record{Type: wal.TAbort, Txn: x.id, PrevLSN: x.last()}); err != nil {
			return err
		}
	}
	x.finish()
	t.c.txnAborts.Add(1)
	return nil
}

// Savepoint marks the current point in the transaction; RollbackTo returns
// to it. The returned token is only valid for this transaction.
func (x *Txn) Savepoint() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.undo)
}

// RollbackTo compensates every operation performed after the savepoint, in
// reverse order, leaving the transaction active. CLRs are logged so a crash
// during the partial rollback recovers correctly.
func (x *Txn) RollbackTo(savepoint int) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done {
		return ErrTxnDone
	}
	if savepoint < 0 || savepoint > len(x.undo) {
		return fmt.Errorf("blinktree: invalid savepoint %d (undo length %d)", savepoint, len(x.undo))
	}
	t := x.t
	// Compensations run under the checkpoint gate (RollbackTo is a public
	// entry point; no operation gate is held here).
	g, err := t.opBegin()
	if err != nil {
		return err
	}
	err = func() error {
		defer t.opEnd(g)
		for i := len(x.undo) - 1; i >= savepoint; i-- {
			if cerr := t.compensate(x, x.undo[i]); cerr != nil {
				return fmt.Errorf("blinktree: rollback to savepoint: %w", cerr)
			}
		}
		return nil
	}()
	if err != nil {
		return err
	}
	x.undo = x.undo[:savepoint]
	// Locks acquired after the savepoint are retained until commit/abort:
	// strict 2PL never releases early.
	return nil
}

// compensate applies the inverse of one operation, logging a CLR.
func (t *Tree) compensate(x *Txn, u undoRec) error {
	lp := recOpParams{txn: x.id, prevLSN: x.last(), clr: true, undoNext: u.prevLSN}
	var lsn wal.LSN
	var err error
	switch u.op {
	case wal.OpInsert:
		lsn, err = t.deleteInternal(lp, u.key)
		if errors.Is(err, ErrKeyNotFound) {
			err = nil // already gone; compensation is idempotent
		}
	case wal.OpDelete, wal.OpUpdate:
		lsn, _, err = t.putInternal(lp, u.key, u.oldVal)
	}
	if err != nil {
		return err
	}
	if lsn != 0 {
		x.setLast(lsn)
	}
	return nil
}

// record appends an undo entry after a successful logged operation.
func (x *Txn) record(op wal.Op, key, oldVal []byte, lsn wal.LSN) {
	prev := x.last()
	if lsn != 0 {
		x.setLast(lsn)
	}
	x.undo = append(x.undo, undoRec{
		op:      op,
		key:     append([]byte(nil), key...),
		oldVal:  append([]byte(nil), oldVal...),
		lsn:     lsn,
		prevLSN: prev,
	})
}

// lockWithLatch implements the §2.4 protocol: request the record lock in
// no-wait mode while the leaf latch is held; on denial, release the latch,
// block for the lock, and re-latch via the remembered path. It returns the
// (possibly different) latched leaf, or aborts the transaction.
//
// mode is the latch mode currently held on leaf (and re-acquired on the
// re-latch path); promote applies after a re-latch for update intents.
func (x *Txn) lockWithLatch(leaf *node, path []pathEntry, dx uint64, key []byte,
	lmode lock.Mode, latchMode latch.Mode, promote bool, sp *obs.Span) (*node, []pathEntry, error) {

	t := x.t
	err := t.locks.TryLock(x.owner(), lock.Resource(key), lmode)
	if err == nil {
		return leaf, path, nil
	}
	// Denied: give up the latch, wait for the lock, then re-latch.
	t.c.noWaitDenied.Add(1)
	if t.tracing() {
		t.obs.Emit(obs.Event{Kind: obs.EvLockNoWait, Page: uint64(leaf.id), Level: leaf.level()})
	}
	relMode := latchMode
	if promote {
		relMode = latch.Exclusive // traverse promoted before returning
	}
	t.unlatchUnpin(leaf, relMode, false)

	wt0 := sp.Now()
	err = t.locks.Lock(x.owner(), lock.Resource(key), lmode)
	sp.StageSince(obs.StageLockWait, 0, wt0)
	if err != nil {
		// Deadlock victim: roll back (the surrounding operation still
		// holds the checkpoint gate).
		t.c.txnDeadlocks.Add(1)
		if t.tracing() {
			t.obs.Emit(obs.Event{Kind: obs.EvDeadlockVictim, Epoch: x.id})
		}
		if aerr := x.abortLocked(true); aerr != nil {
			return nil, nil, aerr
		}
		return nil, nil, fmt.Errorf("%w: %v", ErrTxnAborted, err)
	}
	leaf2, path2, err := t.relatch(path, key, dx, latchMode, promote)
	if err != nil {
		// D_X changed while we waited: abort (paper §2.4). Rare.
		t.c.txnAbortsDX.Add(1)
		if t.tracing() {
			t.obs.Emit(obs.Event{Kind: obs.EvRelatchAbort, DXWant: dx, DXSeen: t.dx.v.Load(), Epoch: x.id})
		}
		if aerr := x.abortLocked(true); aerr != nil {
			return nil, nil, aerr
		}
		return nil, nil, fmt.Errorf("%w: delete state changed during re-latch", ErrTxnAborted)
	}
	return leaf2, path2, nil
}

// Get reads key under a shared record lock held to commit (strict 2PL).
func (x *Txn) Get(key []byte) ([]byte, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done {
		return nil, ErrTxnDone
	}
	t := x.t
	g, err := t.opBegin()
	if err != nil {
		return nil, err
	}
	defer t.opEnd(g)
	if len(key) == 0 {
		return nil, ErrEmptyKey
	}
	t.c.searches.Add(obs.StackHint(), 1)
	t0, sp := t.obsBegin(obs.OpSearch)
	defer t.obsEnd(obs.OpSearch, t0, sp)
	dx := t.dx.v.Load()
	var pb pathBuf
	leaf, path, err := t.traverseRead(traverseOpts{key: key, intent: latch.Shared, dx: dx, sp: sp}, pb[:0])
	if err != nil {
		return nil, err
	}
	leaf, path, err = x.lockWithLatch(leaf, path, dx, key, lock.Shared, latch.Shared, false, sp)
	if err != nil {
		return nil, err
	}
	pos, found := t.search(&leaf.c().Recs, key)
	var val []byte
	if found {
		val = append([]byte(nil), leaf.c().Recs.Val(pos)...)
	}
	t.maybeEnqueueLeafDelete(leaf, path, dx)
	t.unlatchUnpin(leaf, latch.Shared, false)
	if !found {
		return nil, ErrKeyNotFound
	}
	return val, nil
}

// Put inserts or replaces key under an exclusive record lock.
func (x *Txn) Put(key, val []byte) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done {
		return ErrTxnDone
	}
	t := x.t
	g, err := t.opBegin()
	if err != nil {
		return err
	}
	defer t.opEnd(g)
	if err := t.validateEntry(key, val); err != nil {
		return err
	}
	t.c.inserts.Add(1)
	t0, sp := t.obsBegin(obs.OpInsert)
	dx := t.dx.v.Load()
	var pb pathBuf
	leaf, path, err := t.traverse(traverseOpts{key: key, intent: latch.Update, promote: true, dx: dx, sp: sp}, pb[:0])
	if err != nil {
		return err
	}
	leaf, path, err = x.lockWithLatch(leaf, path, dx, key, lock.Exclusive, latch.Update, true, sp)
	if err != nil {
		return err
	}
	// Capture the prior value for undo before the write.
	var op wal.Op = wal.OpInsert
	var old []byte
	if pos, found := t.search(&leaf.c().Recs, key); found {
		op = wal.OpUpdate
		old = append([]byte(nil), leaf.c().Recs.Val(pos)...)
	}
	lsn, updated, err := t.putOnLeaf(leaf, path, dx, recOpParams{txn: x.id, prevLSN: x.last(), sp: sp}, key, val)
	if err != nil {
		return err
	}
	if updated {
		t.c.updates.Add(1)
		t.obsEnd(obs.OpUpdate, t0, sp)
	} else {
		t.obsEnd(obs.OpInsert, t0, sp)
	}
	x.record(op, key, old, lsn)
	return nil
}

// Delete removes key under an exclusive record lock.
func (x *Txn) Delete(key []byte) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done {
		return ErrTxnDone
	}
	t := x.t
	g, err := t.opBegin()
	if err != nil {
		return err
	}
	defer t.opEnd(g)
	if len(key) == 0 {
		return ErrEmptyKey
	}
	t.c.deletes.Add(1)
	t0, sp := t.obsBegin(obs.OpDelete)
	defer t.obsEnd(obs.OpDelete, t0, sp)
	dx := t.dx.v.Load()
	var pb pathBuf
	leaf, path, err := t.traverse(traverseOpts{key: key, intent: latch.Update, promote: true, dx: dx, sp: sp}, pb[:0])
	if err != nil {
		return err
	}
	leaf, path, err = x.lockWithLatch(leaf, path, dx, key, lock.Exclusive, latch.Update, true, sp)
	if err != nil {
		return err
	}
	var old []byte
	if pos, found := t.search(&leaf.c().Recs, key); found {
		old = append([]byte(nil), leaf.c().Recs.Val(pos)...)
	}
	lsn, err := t.deleteOnLeaf(leaf, path, dx, recOpParams{txn: x.id, prevLSN: x.last(), sp: sp}, key)
	if err != nil {
		return err
	}
	x.record(wal.OpDelete, key, old, lsn)
	return nil
}
