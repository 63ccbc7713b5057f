package core

import (
	"fmt"
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
}

// The to-do queue pops by class, lowest first, FIFO within a class.
const (
	// classIndex: root shrinks and index-level posts. A missing upper-level
	// index term forces a side traversal on every traversal of the key space
	// below it, so these repair the tree before anything else runs.
	classIndex = iota
	// classLeaf: leaf-level posts, leaf consolidations and reclaims.
	classLeaf
	// classIndexDelete: index-node deletes. accessParent increments D_X for
	// one before it knows the consolidation will happen (A.3 step 3), and
	// that voids every action remembered under the old value (§4.1.1) — so
	// they run only when nothing else is queued. Popped any earlier, an
	// index delete that aborts at the edge on every round keeps aborting the
	// leaf deletes that would have emptied its subtree, for ever.
	classIndexDelete
	numClasses
)

func (a action) class() int {
	switch {
	case a.kind == actShrink || (a.kind == actPost && a.level >= 1):
		return classIndex
	case a.kind == actDelete && a.level >= 1:
		return classIndexDelete
	default:
		return classLeaf
	}
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

// todoQueue is the volatile maintenance scheduler for lazy structure
// modifications, with a small worker pool: one mutex, one dedup map, one
// FIFO per class. It does not survive crashes and is never logged (§4.1.3).
//
// Only the workers and DrainTodo run actions; a foreground operation never
// does. The dedup map collapses re-discoveries of one need, so the queue
// holds about an action per outstanding need — a post per unposted split, a
// delete per under-utilized node — and grows with the tree's unfinished
// work, not with the operation rate.
type todoQueue struct {
	t *Tree

	mu   sync.Mutex
	wake *sync.Cond // on mu: broadcast by enqueue, requeue, finish and stop

	// The fields below are guarded by mu.
	classes [numClasses][]action
	pending map[dedupKey]struct{}
	busy    int // actions popped and still being processed

	// queued is the number of actions sitting in classes and highWater its
	// maximum (Stats.TodoQueueHighWater). Both are written under mu and read
	// without it, so tryPop's empty check and a Stats call take no lock.
	queued    atomic.Int64
	highWater atomic.Int64

	stopped atomic.Bool

	// drainSpinLimit is maxDrainSpins, overridable by tests.
	drainSpinLimit int

	workers int
	wg      sync.WaitGroup
}

func newTodoQueue(t *Tree, workers int) *todoQueue {
	q := &todoQueue{
		t:              t,
		pending:        make(map[dedupKey]struct{}),
		drainSpinLimit: maxDrainSpins,
		workers:        workers,
	}
	q.wake = sync.NewCond(&q.mu)
	return q
}

func (q *todoQueue) start() {
	for i := 0; i < q.workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
}

// postPending reports whether a posting for (orig, new) is already queued;
// hot paths (side traversals re-discover the same missing term on every
// pass) use it to skip building the action at all.
func (q *todoQueue) postPending(origID, newID page.PageID) bool {
	key := dedupKey{kind: actPost, orig: origID, new: newID}
	q.mu.Lock()
	_, dup := q.pending[key]
	q.mu.Unlock()
	if dup {
		q.t.c.todoDedupHits.Add(1)
	}
	return dup
}

// push appends an action to its class and wakes sleepers (mu held).
func (q *todoQueue) push(a action) {
	c := a.class()
	q.classes[c] = append(q.classes[c], a)
	if d := q.queued.Add(1); d > q.highWater.Load() {
		q.highWater.Store(d)
	}
	q.wake.Broadcast()
}

// enqueue adds an action unless an identical one is already pending.
func (q *todoQueue) enqueue(a action) {
	if q.stopped.Load() {
		return
	}
	key := a.dedup()
	q.mu.Lock()
	if _, dup := q.pending[key]; dup {
		q.mu.Unlock()
		q.t.c.todoDedupHits.Add(1)
		return
	}
	q.pending[key] = struct{}{}
	q.push(a)
	q.mu.Unlock()
	q.t.traceSMO(obs.EvEnqueued, &a)
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
	q.mu.Lock()
	// Deliberately not deduplicated: the pending entry for this action is
	// removed by finish after process() returns, so re-adding under the
	// same key here keeps the slot occupied.
	q.push(a)
	q.mu.Unlock()
	q.t.traceSMO(obs.EvRequeued, &a)
}

// len counts actions queued or being processed.
func (q *todoQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.queued.Load()) + q.busy
}

// tryPop removes the next action without blocking: the oldest of the lowest
// non-empty class.
func (q *todoQueue) tryPop() (action, bool) {
	if q.queued.Load() == 0 {
		return action{}, false
	}
	q.mu.Lock()
	for c := range q.classes {
		if s := q.classes[c]; len(s) > 0 {
			a := s[0]
			q.classes[c] = s[1:]
			q.queued.Add(-1)
			q.busy++
			q.mu.Unlock()
			return a, true
		}
	}
	q.mu.Unlock()
	return action{}, false
}

// finish marks an action's processing complete and clears its dedup slot.
func (q *todoQueue) finish(a action) {
	q.mu.Lock()
	delete(q.pending, a.dedup())
	q.busy--
	q.wake.Broadcast()
	q.mu.Unlock()
}

// run processes one popped action and releases its slot.
func (q *todoQueue) run(a action) {
	q.t.processActionGated(a)
	q.finish(a)
}

// runNextGated pops one action and runs it behind the checkpoint gate,
// reporting whether there was one: workers mutate pages concurrently with
// everything else, so a sharp checkpoint must be able to quiesce them
// exactly like foreground operations (the pool's FlushAll contract: no page
// may be modified during the flush). The gate is entered before the pop: an action in hand outside it keeps the queue busy while
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
	for !q.stopped.Load() {
		if q.runNextGated() {
			continue
		}
		q.mu.Lock()
		for q.queued.Load() == 0 && !q.stopped.Load() {
			q.wake.Wait()
		}
		q.mu.Unlock()
	}
}

// drain processes queued actions in the calling goroutine until the queue
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
			// Workers may be mid-action: wait for them (they may enqueue
			// follow-up work before finishing).
			q.mu.Lock()
			for q.queued.Load() == 0 && q.busy > 0 && !q.stopped.Load() {
				q.wake.Wait()
			}
			empty := q.queued.Load() == 0
			q.mu.Unlock()
			if empty {
				return // idle, or stopped
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

// takeAll empties the queue and returns the captured actions in pop order,
// clearing all dedup slots. Diagnostic harnesses (the figure walkthrough)
// use it to intercept queued actions for manual processing.
func (q *todoQueue) takeAll() []action {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []action
	for c := range q.classes {
		out = append(out, q.classes[c]...)
		q.classes[c] = nil
	}
	clear(q.pending)
	q.queued.Store(0)
	return out
}

// stop shuts the scheduler down, discarding pending actions (they are
// volatile by design) after giving workers a chance to finish the current
// one.
func (q *todoQueue) stop() {
	q.mu.Lock()
	q.stopped.Store(true)
	q.wake.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}
