package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/buffer"
	"blinktree/internal/latch"
	"blinktree/internal/lock"
	"blinktree/internal/obs"
	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// Errors returned by tree operations.
var (
	// ErrKeyNotFound is returned by Get/Delete/Update of an absent key.
	ErrKeyNotFound = errors.New("blinktree: key not found")
	// ErrEmptyKey is returned for zero-length keys; the empty key is the
	// -infinity fence sentinel.
	ErrEmptyKey = errors.New("blinktree: empty key")
	// ErrEntryTooLarge is returned when a record cannot fit in a node.
	ErrEntryTooLarge = errors.New("blinktree: entry too large for page")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("blinktree: tree closed")
	// errDeleteState aborts a structure modification whose delete state
	// changed (paper §2.3): the action is abandoned, to be re-discovered.
	errDeleteState = errors.New("blinktree: delete state changed")
)

// deleteState is the global index-delete state D_X (§4.1.1): a counter
// incremented whenever an index node is deleted, with a latch that is
// latch-coupled with the parent latch in access parent (Figure 4).
type deleteState struct {
	l latch.Latch
	v atomic.Uint64
}

// anchorRec is one published state of the volatile tree anchor: the root, its
// level, and the root's node, on which the record holds a standing pin until
// setAnchor replaces it. Records are immutable. A stale one is harmless to a
// latched traversal — a former root still reaches every node at or below its
// level via side traversals — and an optimistic one may read node with no pin
// of its own for as long as the record is the published one (optread.go).
type anchorRec struct {
	id    page.PageID
	level uint8
	node  *node
}

// Tree is a B-link tree with delete-state-based node deletion.
type Tree struct {
	// Read-mostly words first: every operation loads them, so they stay off
	// the cache lines written while the tree runs.
	opts  Options
	store storage.Store
	pool  *buffer.Pool
	log   *wal.Log // nil when logging is disabled
	locks *lock.Manager
	todo  *todoQueue

	// cmp orders keys; bytewise reports whether it is the default
	// bytes.Compare (enables separator truncation and prefix tricks).
	cmp      Compare
	bytewise bool

	// latchedReads sends every read down the latched traversal instead of the
	// optimistic descent (optread.go). Only tests set it, as the reference
	// the optimistic descent is checked against.
	latchedReads bool

	// rightEdge is the right-edge append fast path's cache: a hint naming
	// the rightmost leaf and its low fence (see appendfast.go).
	// noAppendFast keeps it empty, so every insert descends; only tests set
	// it, before the tree is shared.
	noAppendFast bool
	rightEdge    atomic.Pointer[rightEdgeHint]

	// anchor is replaced only by setAnchor, under anchorMu.
	anchor atomic.Pointer[anchorRec]

	// obs is the observability registry; nil (the common case) means
	// metrics and tracing are off and every hook is a nil check.
	obs *obs.Registry

	// recStats records what crash recovery found and did; written once
	// during New (before the tree is shared) and read-only afterwards.
	recStats RecoveryStats

	closed atomic.Bool

	// failure is the first error that stopped a logged change (fail).
	failure atomic.Pointer[error]

	_ [64]byte // below: words that writers and structure modifications write

	anchorMu sync.Mutex
	dx       deleteState

	// epochGen issues node incarnation numbers in non-logged mode; with
	// logging, epochs are SMO record LSNs (monotone across crashes).
	epochGen atomic.Uint64

	// txnSeq issues transaction IDs (resumed above recovered IDs).
	txnSeq atomic.Uint64

	// ckptLSN is the LSN of the last checkpoint record appended (at open,
	// the one redo started after). A page whose LSN is not above it has no
	// image in the redo window, so its next change logs one (firstChange).
	// Written only with every operation held out (checkpoint gate, or open).
	ckptLSN atomic.Uint64

	// active tracks live transactions for checkpoint records.
	active activeTxns

	// smoMu is the global tree latch of the ARIES/IM-style comparator
	// (Options.SerializeSMO): all structure modifications serialize on it.
	// Never acquired while holding node latches.
	smoMu sync.Mutex

	// Drain-policy state: operation counters driving the reference-drain
	// grace period, and the husk list of emptied pages awaiting it.
	opsActive   atomic.Int64
	opsFinished atomic.Uint64
	drainMu     sync.Mutex
	drainList   []drainEntry

	_ [64]byte // below: what every operation writes, each on its own stripe

	c counters

	// latchRec receives latch statistics from every latch this tree owns
	// (node latches, the D_X latch), keeping trees in one process from
	// polluting each other's numbers.
	latchRec latch.Recorder

	// gate holds every operation; Checkpoint and BulkLoad lock it.
	gate obs.Gate
}

// drainEntry is a deleted page waiting out the drain grace period.
type drainEntry struct {
	id        page.PageID
	releaseAt uint64 // opsFinished horizon at which references have drained
}

// codec deserializes page images into nodes for the buffer pool.
type codec struct{ t *Tree }

// Unmarshal implements buffer.Codec.
func (cd codec) Unmarshal(data []byte) (buffer.Object, error) {
	var c page.Content
	if err := page.UnmarshalInto(&c, data); err != nil {
		return nil, err
	}
	// Prefix compression is a property of the tree's comparator, not of the
	// stored image: a bytewise tree (re)compresses index pages on write-out,
	// a custom-comparator tree never does (its key order need not preserve
	// byte prefixes). Unmarshal already reconstructed full keys either way.
	c.Compress = cd.t.bytewise
	n := newNode(c.ID, c)
	n.latch.SetRecorder(&cd.t.latchRec)
	return n, nil
}

// New creates a tree. With a LogDevice holding an existing log, the tree is
// recovered from it (redo, then undo of loser transactions); otherwise a
// fresh single-leaf tree is formatted.
func New(opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	if opts.Workers == WorkersNone {
		opts.Workers = 0
	}
	t := &Tree{
		opts:  opts,
		store: opts.Store,
		locks: lock.NewManager(),
	}
	if opts.Compare != nil {
		t.cmp = opts.Compare
		t.bytewise = false
	} else {
		t.cmp = bytes.Compare
		t.bytewise = true
	}
	t.active.m = make(map[uint64]*Txn)

	// Observability: resolve the config (the obstrace build tag forces full
	// tracing; the obsoff tag compiles all of it out), then point every
	// subsystem's observer hook at the registry.
	if obs.Compiled {
		var cfg obs.Config
		if opts.Observability != nil {
			cfg = *opts.Observability
		}
		if obs.ForceTrace {
			cfg.Metrics = true
			cfg.Trace = true
			// Spans too, so the race-detector CI run exercises the span
			// machinery on every tree (at the default sampling rate unless
			// the test configured its own).
			cfg.Spans = true
		}
		t.obs = obs.New(cfg)
	}
	t.dx.l.SetRecorder(&t.latchRec)
	if t.obs != nil {
		t.latchRec.SetLongWaitCallback(t.obs.LatchWaitThreshold(), t.obs.ObserveLongWait)
		t.locks.SetWaitObserver(func(_ lock.Resource, d time.Duration, _ bool) {
			t.obs.ObserveLockWait(d)
		})
	}

	if opts.LogDevice != nil {
		log, err := wal.NewLog(opts.LogDevice)
		if err != nil {
			return nil, fmt.Errorf("blinktree: opening log: %w", err)
		}
		t.log = log
		if t.obs != nil {
			t.log.SetObserver(t.obs)
		}
		t.log.StartPipeline(wal.PipelineConfig{
			Mode:     opts.Durability,
			Interval: opts.FlushInterval,
			Bytes:    opts.FlushBytes,
		})
	}
	t.pool = buffer.NewPool(t.store, t.log, codec{t}, opts.CacheSize)
	if t.obs != nil {
		t.pool.SetObserver(t.obs)
	}
	t.todo = newTodoQueue(t, opts.Workers)

	recovered := false
	if t.log != nil {
		var err error
		recovered, err = t.recover()
		if err != nil {
			return nil, err
		}
	}
	if !recovered {
		if err := t.format(); err != nil {
			return nil, err
		}
	}
	t.todo.start()
	return t, nil
}

// format initializes a fresh tree: a single empty leaf as the root.
func (t *Tree) format() error {
	rootC := page.Content{
		Kind:  page.Leaf,
		Level: 0,
		Low:   []byte{},
		Keys:  [][]byte{},
		Vals:  [][]byte{},
	}
	root, err := t.allocNode(rootC)
	if err != nil {
		return err
	}
	if t.log != nil {
		_, err = t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
			root.lsn = uint64(lsn)
			root.c().Epoch = uint64(lsn)
			return &wal.Record{
				Type:   wal.TSMO,
				SMO:    wal.SMOFormat,
				Images: t.pageImage(root),
				Allocs: []page.PageID{root.id},
				Root:   root.id,
			}
		})
		if err != nil {
			return err
		}
		if err := t.log.FlushAll(); err != nil {
			return err
		}
	}
	t.setAnchor(root, true)
	return nil
}

// readAnchor returns the current root and its level.
func (t *Tree) readAnchor() (page.PageID, uint8) {
	a := t.anchor.Load()
	return a.id, a.level
}

// setAnchor publishes root. The caller's pin on it becomes the new record's
// standing pin; the replaced record's is dropped. A root just built arrives
// X-latched and is released here, before the anchor can lead a reader to it.
// Callers hold anchorMu (format, recovery run alone).
func (t *Tree) setAnchor(root *node, built bool) {
	if built {
		root.latch.Release(latch.Exclusive)
		root.frame.MarkDirty()
	}
	old := t.anchor.Swap(&anchorRec{id: root.id, level: root.c().Level, node: root})
	if old != nil {
		old.node.frame.Unpin(false)
	}
}

// fetch pins the node for id.
func (t *Tree) fetch(id page.PageID) (*node, error) {
	obj, err := t.pool.Fetch(id)
	if err != nil {
		return nil, err
	}
	return obj.(*node), nil
}

// pinLatch pins id and acquires its latch in the given mode. On error
// nothing is held.
func (t *Tree) pinLatch(id page.PageID, m latch.Mode) (*node, error) {
	n, err := t.fetch(id)
	if err != nil {
		return nil, err
	}
	n.latch.Acquire(m)
	return n, nil
}

// fetchLive pins id and latches it in mode m, refusing a node that has been
// deleted. It follows a page ID that carries no epoch: a child or side
// pointer, or a posting's new node. On false nothing is held.
func (t *Tree) fetchLive(id page.PageID, m latch.Mode, sp *obs.Span) (*node, bool) {
	n, err := t.pinLatchSpan(id, m, sp)
	if err != nil {
		return nil, false
	}
	if n.c().dead {
		t.unlatchUnpin(n, m, false)
		return nil, false
	}
	return n, true
}

// fetchSame is fetchLive for a remembered reference: it also refuses a node
// that is not r's incarnation, its page having been freed and reused since.
// An epoch is stamped only when a node is created, and a live node's level
// and low fence never change in place, so a match vouches for both. On false
// nothing is held.
func (t *Tree) fetchSame(r ref, m latch.Mode, sp *obs.Span) (*node, bool) {
	n, ok := t.fetchLive(r.id, m, sp)
	if ok && n.c().Epoch != r.epoch {
		t.unlatchUnpin(n, m, false)
		return nil, false
	}
	return n, ok
}

// unlatchUnpin releases the latch and the pin. It publishes nothing: an
// index node's change installed its snapshot when it was made.
func (t *Tree) unlatchUnpin(n *node, m latch.Mode, dirty bool) {
	n.latch.Release(m)
	n.frame.Unpin(dirty)
}

// allocNode allocates a store page and registers a node for it, returned
// pinned and exclusively latched. A page ID is not a secret: the store
// reuses freed IDs, and holders of stale references — the append fast path's
// hint, an optimistic reader's child pointer — can fetch the new node the
// moment the pool knows it, before the SMO creating it has finished. The
// latch makes them wait or walk away; the caller releases it (unlatchUnpin)
// once the node is complete and logged. In non-logged mode the epoch is
// assigned here; in logged mode the caller's SMO stamps it with the SMO
// record's LSN.
func (t *Tree) allocNode(c page.Content) (*node, error) {
	id, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	if t.log == nil {
		c.Epoch = t.epochGen.Add(1)
	}
	c.Compress = t.bytewise
	n := newNode(id, c)
	n.latch.SetRecorder(&t.latchRec)
	n.latch.Acquire(latch.Exclusive)
	if err := t.pool.Insert(id, n); err != nil {
		if derr := t.store.Deallocate(id); derr != nil {
			return nil, errors.Join(err, derr)
		}
		return nil, err
	}
	return n, nil
}

// reclaim removes a dead node's page. The caller must have released its own
// pin; if another goroutine still pins the frame (it will observe the dead
// flag and back off), reclamation is retried via the to-do queue.
func (t *Tree) reclaim(id page.PageID) {
	ok, err := t.pool.DiscardIfUnpinned(id, func() error {
		return t.store.Deallocate(id)
	})
	if err != nil {
		// Duplicate reclaim of an already-deallocated page: ignore.
		return
	}
	if !ok {
		t.c.reclaimRetry.Add(1)
		t.todo.enqueue(action{kind: actReclaim, origID: id})
	}
}

// reclaimAction is the queue-driven retry of reclaim. It must requeue (not
// enqueue) on failure: while the action is being processed its dedup slot
// is still occupied, so a nested enqueue of the same key would be collapsed
// and the retry silently lost.
func (t *Tree) reclaimAction(a action) {
	ok, err := t.pool.DiscardIfUnpinned(a.origID, func() error {
		return t.store.Deallocate(a.origID)
	})
	if err != nil {
		// Duplicate reclaim of an already-deallocated page: ignore.
		return
	}
	if !ok {
		t.c.reclaimRetry.Add(1)
		t.todo.requeue(a)
		return
	}
	t.traceSMO(obs.EvCompleted, &a)
}

// Stats returns a snapshot of the tree's activity counters.
func (t *Tree) Stats() Stats {
	s := t.c.snapshot()
	s.TodoQueueHighWater = uint64(t.todo.highWater.Load())
	return s
}

// DX returns the current global index-delete-state counter, for tests and
// experiment reporting.
func (t *Tree) DX() uint64 { return t.dx.v.Load() }

// RecoveryStats returns what crash recovery found and did when this tree
// was opened; the zero value (Recovered false) means no recovery ran.
func (t *Tree) RecoveryStats() RecoveryStats { return t.recStats }

// PoolStats returns buffer pool statistics.
func (t *Tree) PoolStats() buffer.Stats { return t.pool.Snapshot() }

// StoreStats returns page store statistics (live page count drives the
// utilization experiment E2).
func (t *Tree) StoreStats() storage.Stats { return t.store.Stats() }

// LockStats returns lock manager statistics.
func (t *Tree) LockStats() lock.Stats { return t.locks.Snapshot() }

// LogStats returns the write-ahead log's (appended records, forced
// flushes); zeros when logging is disabled. The logging experiment (E3)
// compares these across delete policies.
func (t *Tree) LogStats() (appends, flushes uint64) {
	if t.log == nil {
		return 0, 0
	}
	return t.log.Stats()
}

// Height returns the current root level (a single-leaf tree has height 0).
func (t *Tree) Height() uint8 {
	_, lvl := t.readAnchor()
	return lvl
}

// DrainTodo synchronously processes queued structure modifications until
// the queue is empty and idle. Tests and benchmarks use it to reach a
// quiescent, fully-posted state. Under the drain policy, it also reclaims
// every husk (quiescence means all references have drained). Once the tree
// has failed (fail), it runs nothing and returns the failure.
func (t *Tree) DrainTodo() error {
	if t.todo.drain(); t.opts.DeletePolicy == Drain && t.failed() == nil {
		t.drainReclaim(true)
	}
	return t.failed()
}

// fail records err, the failure of a change's log record, as the tree's
// failure if it is the first, and returns it. The change stays in memory,
// search-correct as an abandoned SMO is (§2.3). On a failed log, the nodes
// it touched get an LSN past every record: the log holds records it never
// made durable, so the WAL rule fails their write-back. The workers stop
// popping, and DrainTodo and Close return the failure.
func (t *Tree) fail(err error, touched ...*node) error {
	if errors.Is(err, wal.ErrLogFailed) {
		for _, n := range touched {
			n.lsn = math.MaxUint64
		}
	}
	t.failure.CompareAndSwap(nil, &err)
	return err
}

// failed returns the tree's failure (fail), or nil.
func (t *Tree) failed() error {
	if p := t.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// DrainPending returns the number of deleted pages still waiting out the
// drain grace period (drain policy only); experiment E2 reports it.
func (t *Tree) DrainPending() int {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	return len(t.drainList)
}

// TodoLen returns the number of queued structure-modification actions.
func (t *Tree) TodoLen() int { return t.todo.len() }

// Checkpoint takes a sharp checkpoint: operations are quiesced, all dirty
// pages are flushed (honoring the WAL rule), and a checkpoint record is
// logged and forced. Redo after a crash restarts at the checkpoint, and so
// does the open's read of the log unless a transaction spans it (wal.Master).
func (t *Tree) Checkpoint() error {
	if t.log == nil {
		return nil
	}
	t.gate.Lock()
	defer t.gate.Unlock()
	return t.checkpointLocked()
}

// checkpointLocked is Checkpoint for a caller holding the gate exclusively.
// From the moment the record is appended, a page whose LSN precedes it
// logs its image on its next change (firstChange), whether or not the
// record then becomes durable: a record lost at a crash takes every later
// one with it, and an older redo window only needs fewer images.
func (t *Tree) checkpointLocked() error {
	if err := t.pool.FlushAll(); err != nil {
		return err
	}
	if err := t.store.Sync(); err != nil {
		return err
	}
	root, _ := t.readAnchor()
	// Operations are quiesced (gate held exclusively), but transactions
	// can span checkpoints: record the live ones so analysis still finds
	// losers whose records all precede the checkpoint.
	t.active.mu.Lock()
	var act []wal.ActiveTxn
	for id, x := range t.active.m {
		act = append(act, wal.ActiveTxn{ID: id, LastLSN: x.last()})
	}
	t.active.mu.Unlock()
	rec := &wal.Record{Type: wal.TCheckpoint, Root: root, Active: act}
	err := t.log.Checkpoint(func() *wal.Record {
		rec.Txn = t.txnSeq.Load()
		return rec
	})
	t.ckptLSN.Store(uint64(rec.LSN))
	return err
}

// firstChange reports whether n's next logged change is its first since
// the last checkpoint, and so must carry n's after-image: without one, a
// write-back torn by a crash would leave n with no intact copy the redo
// window can restore. The caller holds n exclusively.
func (t *Tree) firstChange(n *node) bool {
	return n.lsn <= t.ckptLSN.Load()
}

// pageImage marshals n for a log record; build functions call it after
// stamping n's LSN. A node that does not marshal is a bug: it becomes the
// tree's failure, and its image is left empty, which the log refuses.
func (t *Tree) pageImage(n *node) []wal.PageImage {
	img, err := n.Marshal(t.opts.PageSize)
	if err != nil {
		t.fail(fmt.Errorf("blinktree: image of page %d: %w", n.id, err))
	}
	return []wal.PageImage{{ID: n.id, Data: img}}
}

// Close drains the to-do queue, flushes state and shuts the tree down. The
// log is forced first: everything appended is durable, commits still
// waiting for a force included, and the background log-writer of the
// periodic and async modes has exited. A logged
// tree ends with a Checkpoint: a clean shutdown restarts by reading that one
// record, unless a transaction was left open. A tree that failed (fail)
// instead stops its log without a force and returns the failure.
func (t *Tree) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.todo.stop()
	if err := t.failed(); err != nil {
		t.Abandon() // stops the log without a force
		return err
	}
	if t.log == nil {
		return t.store.Sync()
	}
	if err := t.log.Stop(true); err != nil {
		return err
	}
	return t.Checkpoint()
}

// FlushLog forces all appended log records durable without checkpointing.
// In every durability mode a successful return guarantees every operation
// completed before the call survives any later crash — under the periodic
// and async modes this is THE explicit durability barrier (commit
// acknowledgements there do not wait for a force). Crash-simulation
// harnesses use it to define the durable horizon before simulating a
// failure.
func (t *Tree) FlushLog() error {
	if t.log == nil {
		return nil
	}
	return t.log.FlushAll()
}

// Abandon stops background workers without flushing any state, simulating
// process death. The log is stopped without a final force: nothing more
// reaches its device, and commits waiting for a force get
// wal.ErrPipelineStopped — a real power cut never acks them either. The
// tree is unusable afterwards; reopen over
// the same log device to exercise recovery.
func (t *Tree) Abandon() {
	t.closed.Store(true)
	t.todo.stop()
	if t.log != nil {
		_ = t.log.Stop(false)
	}
}

// opBegin gates an operation against checkpoints and rejects closed trees.
// It returns the gate stripe the operation entered, for opEnd.
func (t *Tree) opBegin() (int, error) {
	if t.closed.Load() {
		return 0, ErrClosed
	}
	g := t.gate.Enter()
	if t.closed.Load() {
		t.gate.Leave(g)
		return 0, ErrClosed
	}
	if t.opts.DeletePolicy == Drain {
		t.opsActive.Add(1)
	}
	return g, nil
}

func (t *Tree) opEnd(g int) {
	if t.opts.DeletePolicy == Drain {
		t.opsActive.Add(-1)
		t.opsFinished.Add(1)
	}
	t.gate.Leave(g)
}

// drainDefer parks a deleted page until outstanding references could have
// drained: after every operation active at deletion time has finished.
func (t *Tree) drainDefer(id page.PageID) {
	release := t.opsFinished.Load() + uint64(t.opsActive.Load()) + 1
	t.drainMu.Lock()
	t.drainList = append(t.drainList, drainEntry{id: id, releaseAt: release})
	t.drainMu.Unlock()
}

// drainReclaim frees husks whose grace period has passed. force reclaims
// everything (Close / quiescent drains).
func (t *Tree) drainReclaim(force bool) {
	horizon := t.opsFinished.Load()
	t.drainMu.Lock()
	var keep []drainEntry
	var free []page.PageID
	for _, e := range t.drainList {
		if force || horizon >= e.releaseAt {
			free = append(free, e.id)
		} else {
			keep = append(keep, e)
		}
	}
	t.drainList = keep
	t.drainMu.Unlock()
	for _, id := range free {
		t.reclaim(id)
	}
}

// maxEntry returns the largest record that fits: a page must hold at least
// two entries plus fences for splits to terminate.
func (t *Tree) maxEntry() int {
	return (t.opts.PageSize - 128) / 2
}

// validateEntry rejects keys/values the tree cannot store.
func (t *Tree) validateEntry(key, val []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if page.EntrySize(page.Leaf, len(key), len(val))+len(key) > t.maxEntry() {
		return fmt.Errorf("%w: key %d + value %d bytes", ErrEntryTooLarge, len(key), len(val))
	}
	return nil
}

// underutilized reports whether a node in state s qualifies for
// consolidation. The drain and ARIES/IM comparators require the node to be
// completely empty (§1.3: "It requires waiting until a node is empty before
// deleting it. ... The method of [15] also requires pages to be empty.");
// the paper's method consolidates at any utilization bound.
func (t *Tree) underutilized(s *state) bool {
	if t.opts.MinFill <= 0 {
		return false
	}
	if t.opts.DeletePolicy == Drain || t.opts.SerializeSMO {
		return s.Recs.Len() == 0
	}
	return float64(s.raw) < t.opts.MinFill*float64(t.opts.PageSize)
}
