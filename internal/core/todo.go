package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/obs"
	"blinktree/internal/page"
)

// actionKind identifies a queued structure modification.
type actionKind uint8

const (
	// actPost posts the index term for a completed half split (§3.2.3).
	actPost actionKind = iota + 1
	// actDelete consolidates an under-utilized node into its left sibling
	// (§3.2.4).
	actDelete
	// actShrink removes a root that has a single child and no sibling.
	actShrink
	// actReclaim retries deallocation of a dead node whose buffer frame
	// was still pinned by a concurrent reader.
	actReclaim
)

func (k actionKind) String() string {
	switch k {
	case actPost:
		return "post"
	case actDelete:
		return "delete"
	case actShrink:
		return "shrink"
	case actReclaim:
		return "reclaim"
	default:
		return fmt.Sprintf("action(%d)", uint8(k))
	}
}

// ref is a remembered node reference: the address plus the incarnation
// number that makes stale references detectable.
type ref struct {
	id    page.PageID
	epoch uint64
}

// action is one entry on the volatile to-do queue. Every action carries the
// delete state remembered when the need for it was discovered (§4.1.1): the
// worker aborts the action if the state has changed.
type action struct {
	kind  actionKind
	level uint8 // level of the split/victim node

	// actPost: origID split, producing newID whose low key is sep.
	// actDelete: origID is the victim, sep is its (immutable) low key.
	// actShrink/actReclaim: origID is the target.
	origID    page.PageID
	origEpoch uint64
	newID     page.PageID
	sep       []byte

	// parent is the remembered parent from the traversal path; a zero ID
	// means the node was at root level (posts go through the grow path)
	// or the parent is unknown (deletes resolve it by traversal).
	parent ref

	// dx is the remembered global index-delete state D_X.
	dx uint64
	// dd is the remembered parent D_D, meaningful for leaf-level posts.
	dd uint64

	retries int

	// enqAt is the (re-)enqueue time, feeding the scheduler's
	// enqueue-to-process latency histogram.
	enqAt time.Time
}

// urgent reports whether the action repairs the upper index levels. A
// missing upper-level index term forces a side traversal on every traversal
// of the key space below it, so index-level posts and root shrinks drain
// before leaf-level work. Index-node deletes are NOT prioritized: they bump
// D_X, which would invalidate every action queued behind them.
func (a action) urgent() bool {
	return a.kind == actShrink || (a.kind == actPost && a.level >= 1)
}

// dedupKey identifies an action for duplicate-discovery collapsing. It is
// a comparable struct (not a formatted string) so the hot re-discovery
// paths allocate nothing.
type dedupKey struct {
	kind actionKind
	orig page.PageID
	new  page.PageID
}

func (a action) dedup() dedupKey {
	return dedupKey{kind: a.kind, orig: a.origID, new: a.newID}
}

// maxActionRetries bounds re-enqueues of one action (root-grow races,
// reclaim of a transiently pinned page). A dropped post or delete is always
// safe: the need for it is re-discovered (§2.3).
const maxActionRetries = 1000

// maxDrainSpins bounds drain's tolerance for actions that keep requeuing
// without the queue shrinking; past it drain bails out, counted by
// Stats.DrainBailouts (stuck actions keep the tree correct regardless).
const maxDrainSpins = 1_000_000

// todoLatencyBuckets is the number of enqueue-to-process latency buckets:
// <100µs, <1ms, <10ms, <100ms, ≥100ms.
const todoLatencyBuckets = 5

// todoShard is one independently locked slice of the maintenance scheduler.
// Actions are placed by hash of their origID, so duplicate discoveries of
// the same action always land on — and are collapsed by — the same shard.
type todoShard struct {
	mu      sync.Mutex
	urgent  []action // index-level posts and shrinks: drained first
	lazy    []action // leaf-level posts, consolidations, reclaims
	pending map[dedupKey]struct{}

	// highWater is the maximum queue depth this shard has seen (under mu).
	highWater int

	// pad keeps shards on separate cache lines so per-shard mutexes do not
	// false-share under concurrent enqueue/pop.
	_ [32]byte
}

// depth returns the queued-action count (mu held).
func (sh *todoShard) depth() int { return len(sh.urgent) + len(sh.lazy) }

// push appends an action to the level-appropriate queue (mu held).
func (sh *todoShard) push(a action) {
	if a.urgent() {
		sh.urgent = append(sh.urgent, a)
	} else {
		sh.lazy = append(sh.lazy, a)
	}
	if d := sh.depth(); d > sh.highWater {
		sh.highWater = d
	}
}

// pop removes the next action, urgent queue first (mu held).
func (sh *todoShard) pop(urgentOnly bool) (action, bool) {
	if len(sh.urgent) > 0 {
		a := sh.urgent[0]
		sh.urgent = sh.urgent[1:]
		return a, true
	}
	if urgentOnly || len(sh.lazy) == 0 {
		return action{}, false
	}
	a := sh.lazy[0]
	sh.lazy = sh.lazy[1:]
	return a, true
}

// todoQueue is the volatile maintenance scheduler for lazy structure
// modifications, with a small worker pool. It does not survive crashes and
// is never logged (§4.1.3).
//
// The scheduler is sharded: each shard has its own mutex, dedup map and
// level-ordered queues, keyed by hash of the action's origID, so enqueue,
// postPending probes and worker pops contend only per shard. Global state
// (queued/busy counts, the worker wake condition) is atomic or touched only
// when a sleeper exists.
type todoQueue struct {
	t *Tree

	shards []todoShard

	queued atomic.Int64 // actions sitting in shard queues
	busy   atomic.Int64 // actions currently being processed

	// totalHighWater tracks the maximum total queued depth.
	totalHighWater atomic.Int64

	// latency is the enqueue-to-process histogram (todoLatencyBuckets).
	latency [todoLatencyBuckets]atomic.Uint64

	// softCap is the backpressure threshold: when the total queued depth
	// exceeds it, a completing foreground operation processes one action
	// inline (the paper's atomic-action model permits any thread to run
	// any action). <= 0 disables backpressure.
	softCap int
	// assist gates backpressure on having background workers at all:
	// worker-less trees are driven deterministically via DrainTodo, and
	// inline assists would destroy that determinism.
	assist bool

	stopped atomic.Bool

	// wake coordinates sleeping workers and drain waiters. waiters is
	// checked without the mutex so un-contended enqueue/finish never
	// touch it.
	wakeMu  sync.Mutex
	wake    *sync.Cond
	waiters atomic.Int32

	// rr distributes pop scans across shards.
	rr atomic.Uint32

	// drainSpinLimit is maxDrainSpins, overridable by tests.
	drainSpinLimit int

	workers int
	wg      sync.WaitGroup
}

// todoShardCount derives the shard count: the next power of two at or above
// GOMAXPROCS, capped at 64.
func todoShardCount() int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < 64 {
		s <<= 1
	}
	return s
}

func newTodoQueue(t *Tree, workers int) *todoQueue {
	shards := t.opts.TodoShards
	if shards < 1 {
		shards = 1
	}
	q := &todoQueue{
		t:              t,
		shards:         make([]todoShard, shards),
		softCap:        t.opts.TodoSoftCap,
		assist:         workers > 0 && t.opts.TodoSoftCap > 0,
		drainSpinLimit: maxDrainSpins,
		workers:        workers,
	}
	for i := range q.shards {
		q.shards[i].pending = make(map[dedupKey]struct{})
	}
	q.wake = sync.NewCond(&q.wakeMu)
	return q
}

// shard returns the shard owning actions on origID. Fibonacci hashing
// spreads sequential page IDs; the shard count is a power of two.
func (q *todoQueue) shard(id page.PageID) *todoShard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &q.shards[(h>>32)%uint64(len(q.shards))]
}

func (q *todoQueue) start() {
	for i := 0; i < q.workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
}

// postPending reports whether a posting for (orig, new) is already queued;
// hot paths (side traversals re-discover the same missing term on every
// pass) use it to skip building the action at all. Only the owning shard's
// mutex is taken.
func (q *todoQueue) postPending(origID, newID page.PageID) bool {
	key := dedupKey{kind: actPost, orig: origID, new: newID}
	sh := q.shard(origID)
	sh.mu.Lock()
	_, dup := sh.pending[key]
	sh.mu.Unlock()
	if dup {
		q.t.c.todoDedupHits.Add(1)
	}
	return dup
}

// enqueue adds an action unless an identical one is already pending.
func (q *todoQueue) enqueue(a action) {
	if q.stopped.Load() {
		return
	}
	key := a.dedup()
	a.enqAt = time.Now()
	sh := q.shard(a.origID)
	sh.mu.Lock()
	if _, dup := sh.pending[key]; dup {
		sh.mu.Unlock()
		q.t.c.todoDedupHits.Add(1)
		return
	}
	sh.pending[key] = struct{}{}
	sh.push(a)
	sh.mu.Unlock()
	q.t.traceSMO(obs.EvEnqueued, &a)
	q.bumpQueued()
	q.wakeWaiters()
}

// requeue re-adds an action that must be retried later (with backoff via
// retry counting; beyond the cap it is dropped and will be re-discovered).
func (q *todoQueue) requeue(a action) {
	a.retries++
	if a.retries > maxActionRetries {
		return
	}
	if q.stopped.Load() {
		return
	}
	a.enqAt = time.Now()
	sh := q.shard(a.origID)
	sh.mu.Lock()
	// Deliberately not deduplicated: the pending entry for this action is
	// removed by the worker after process() returns, so re-adding under
	// the same key here keeps the slot occupied.
	sh.push(a)
	sh.mu.Unlock()
	q.t.traceSMO(obs.EvRequeued, &a)
	q.bumpQueued()
	q.wakeWaiters()
}

// bumpQueued increments the global depth and maintains its high-water mark.
func (q *todoQueue) bumpQueued() {
	total := q.queued.Add(1)
	for {
		hw := q.totalHighWater.Load()
		if total <= hw || q.totalHighWater.CompareAndSwap(hw, total) {
			return
		}
	}
}

// wakeWaiters wakes sleeping workers/drainers, touching the mutex only when
// someone is actually asleep.
func (q *todoQueue) wakeWaiters() {
	if q.waiters.Load() == 0 {
		return
	}
	q.wakeMu.Lock()
	q.wake.Broadcast()
	q.wakeMu.Unlock()
}

func (q *todoQueue) len() int {
	return int(q.queued.Load() + q.busy.Load())
}

// tryPop removes the next action without blocking. Two passes over the
// shards (round-robin from a rotating start) give index-level work global
// priority over leaf-level work.
func (q *todoQueue) tryPop() (action, bool) {
	if q.queued.Load() == 0 {
		return action{}, false
	}
	n := len(q.shards)
	start := int(q.rr.Add(1))
	for _, urgentOnly := range [2]bool{true, false} {
		for i := 0; i < n; i++ {
			sh := &q.shards[(start+i)%n]
			sh.mu.Lock()
			a, ok := sh.pop(urgentOnly)
			sh.mu.Unlock()
			if ok {
				q.busy.Add(1)
				q.queued.Add(-1)
				q.observeLatency(a)
				return a, true
			}
		}
	}
	return action{}, false
}

// observeLatency buckets the action's enqueue-to-process latency.
func (q *todoQueue) observeLatency(a action) {
	if a.enqAt.IsZero() {
		return
	}
	d := time.Since(a.enqAt)
	var b int
	switch {
	case d < 100*time.Microsecond:
		b = 0
	case d < time.Millisecond:
		b = 1
	case d < 10*time.Millisecond:
		b = 2
	case d < 100*time.Millisecond:
		b = 3
	default:
		b = 4
	}
	q.latency[b].Add(1)
}

// finish marks an action's processing complete and clears its dedup slot.
func (q *todoQueue) finish(a action) {
	sh := q.shard(a.origID)
	sh.mu.Lock()
	delete(sh.pending, a.dedup())
	sh.mu.Unlock()
	q.busy.Add(-1)
	q.wakeWaiters()
}

// run processes one popped action and releases its slot.
func (q *todoQueue) run(a action) {
	q.t.processActionGated(a)
	q.finish(a)
}

// runNextGated pops one action and runs it behind the checkpoint gate,
// reporting whether there was one: workers and inline assists mutate pages
// concurrently with everything else, so a sharp checkpoint must be able to
// quiesce them exactly like foreground operations (the pool's FlushAll
// contract: no page may be modified during the flush). The gate is entered
// before the pop: an action in hand outside it keeps the queue busy while
// its holder waits for the gate, and BulkLoad, draining the queue with the
// gate locked, would wait for it forever (so drain paths run ungated).
func (q *todoQueue) runNextGated() bool {
	defer q.t.gate.Leave(q.t.gate.Enter())
	a, ok := q.tryPop()
	if ok {
		q.run(a)
	}
	return ok
}

func (q *todoQueue) worker() {
	defer q.wg.Done()
	for {
		if q.stopped.Load() {
			return
		}
		if q.runNextGated() {
			continue
		}
		q.wakeMu.Lock()
		q.waiters.Add(1)
		for q.queued.Load() == 0 && !q.stopped.Load() {
			q.wake.Wait()
		}
		q.waiters.Add(-1)
		q.wakeMu.Unlock()
	}
}

// maybeAssist is the backpressure hook, called by foreground operations as
// they complete (no latches held): past the soft cap the operation
// processes one action inline, throttling producers to the rate the
// maintenance machinery can sustain.
func (q *todoQueue) maybeAssist() {
	if !q.assist || q.stopped.Load() {
		return
	}
	if int(q.queued.Load()) <= q.softCap {
		return
	}
	if q.runNextGated() {
		q.t.c.todoInlineAssists.Add(1)
	}
}

// drain processes queued actions in the calling goroutine until every shard
// is empty and all workers are idle. Actions that keep requeuing (e.g. a
// reclaim blocked on a concurrent pin) get a tiny sleep so their blocker
// can progress; a queue that refuses to shrink for drainSpinLimit rounds
// makes drain bail out, counted in Stats.DrainBailouts (stuck actions keep
// the tree correct regardless — the need is re-discovered).
func (q *todoQueue) drain() {
	spins := 0
	for {
		a, ok := q.tryPop()
		if !ok {
			if q.queued.Load() > 0 {
				// Raced with a concurrent pop mid-bookkeeping: rescan.
				runtime.Gosched()
				continue
			}
			if q.busy.Load() == 0 {
				return
			}
			// Workers are mid-action: wait for them (they may enqueue
			// follow-up work before finishing).
			q.wakeMu.Lock()
			q.waiters.Add(1)
			for q.queued.Load() == 0 && q.busy.Load() > 0 && !q.stopped.Load() {
				q.wake.Wait()
			}
			q.waiters.Add(-1)
			q.wakeMu.Unlock()
			if q.stopped.Load() {
				return
			}
			continue
		}

		before := q.len() // includes the action just popped (busy)
		q.run(a)
		if q.len() >= before {
			spins++
			if spins%64 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			if spins > q.drainSpinLimit {
				q.t.c.drainBailouts.Add(1)
				q.t.traceSMO(obs.EvDrainBailout, &a)
				return
			}
		} else {
			spins = 0
		}
	}
}

// takeAll empties every shard and returns the captured actions, clearing
// all dedup slots. Diagnostic harnesses (the figure walkthrough) use it to
// intercept queued actions for manual processing.
func (q *todoQueue) takeAll() []action {
	var out []action
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		taken := len(sh.urgent) + len(sh.lazy)
		out = append(out, sh.urgent...)
		out = append(out, sh.lazy...)
		sh.urgent, sh.lazy = nil, nil
		for k := range sh.pending {
			delete(sh.pending, k)
		}
		sh.mu.Unlock()
		q.queued.Add(-int64(taken))
	}
	return out
}

// stop shuts the scheduler down, discarding pending actions (they are
// volatile by design) after giving workers a chance to finish the current
// one.
func (q *todoQueue) stop() {
	q.stopped.Store(true)
	q.wakeMu.Lock()
	q.wake.Broadcast()
	q.wakeMu.Unlock()
	q.wg.Wait()
}

// SchedulerStats is a snapshot of the maintenance scheduler's internals:
// shard layout, queue depth high-water marks, backpressure and dedup
// activity, and the enqueue-to-process latency histogram.
type SchedulerStats struct {
	// Shards is the configured shard count.
	Shards int
	// SoftCap is the backpressure threshold (0 = disabled).
	SoftCap int
	// QueueHighWater is the maximum total queued depth observed.
	QueueHighWater uint64
	// ShardHighWater is each shard's maximum queued depth.
	ShardHighWater []uint64
	// InlineAssists counts foreground operations that processed an action
	// inline because the queue was over the soft cap.
	InlineAssists uint64
	// DedupHits counts enqueues and pending-probes collapsed onto an
	// already-queued identical action.
	DedupHits uint64
	// DrainBailouts counts DrainTodo calls that gave up on a queue that
	// refused to shrink (perpetually requeuing actions).
	DrainBailouts uint64
	// LatencyBuckets is the enqueue-to-process histogram:
	// <100µs, <1ms, <10ms, <100ms, ≥100ms.
	LatencyBuckets [todoLatencyBuckets]uint64
}

// snapshot collects the scheduler observability counters.
func (q *todoQueue) snapshot() SchedulerStats {
	s := SchedulerStats{
		Shards:         len(q.shards),
		SoftCap:        q.softCap,
		QueueHighWater: uint64(q.totalHighWater.Load()),
		ShardHighWater: make([]uint64, len(q.shards)),
		InlineAssists:  q.t.c.todoInlineAssists.Load(),
		DedupHits:      q.t.c.todoDedupHits.Load(),
		DrainBailouts:  q.t.c.drainBailouts.Load(),
	}
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		s.ShardHighWater[i] = uint64(sh.highWater)
		sh.mu.Unlock()
	}
	for i := range q.latency {
		s.LatencyBuckets[i] = q.latency[i].Load()
	}
	return s
}
