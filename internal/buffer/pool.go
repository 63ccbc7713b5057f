// Package buffer implements the buffer pool: an object cache over a page
// store with pinning, clock eviction and write-ahead-log-rule enforcement.
//
// The pool caches deserialized node objects rather than raw page images: the
// tree pins an object, latches it, works on it, and unpins it. It is a fixed
// array of capacity frames plus a page table (a power-of-two array of bucket
// chains). Reading the table takes no lock and performs no store; a
// per-bucket mutex is taken only to change a chain (miss, Insert, eviction,
// DiscardIfUnpinned). DESIGN.md ("Buffer pool") has the full argument.
//
// Frame state machine. One atomic word per frame packs {state, ref bit, dirty
// bit, pin count}:
//
//	free ──claim──▶ loading ──read+decode ok──▶ ready ◀──write-back failed──┐
//	  ▲                │ failed                    │ CAS pins==0 → evicting  │
//	  └────────────────┴───────◀── unlinked ───────┴──────▶ evicting ────────┘
//
// A loading or evicting frame is owned by one goroutine (its loader, its
// evictor): nobody else changes the word, and fetchers of its page wait for
// the transition. A failed load unlinks and frees the frame, so "failed" is
// never observable: waiters look the page up again and report their own read
// error. A dirty victim is written back — log flushed to its page LSN first,
// the WAL rule — while still linked, so a fetch waits instead of reading the
// old image.
//
// Pin-word protocol. A hit is: hash → walk the chain → CAS the word to pins+1
// (and ref bit) iff the state is ready → re-check frame.id, because between
// the table read and the CAS the frame may have been evicted and reused for
// another page (then: unpin, look up again). An unpin is one atomic decrement
// through the Frame handle the holder already has. Every claim of a frame
// (eviction, discard, stale-frame replacement) is a CAS that requires ready
// and pins == 0, so a pinned frame is never evicted, discarded or recycled,
// and a reloaded page always gets a fresh object. Hits are counted in the
// frame: the hit path writes no cache line but the frame's own.
//
// The paper leans on the cache in two places: latch coupling is cheap
// because "most internal nodes are in the database's main memory cache"
// (§2.4), and D_D lives inside parent-of-leaf nodes so it persists across
// cache eviction (§4.1.2) — which is why eviction must marshal the node
// including its D_D counter.
package buffer

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// Object is a cacheable, serializable page object. The tree's node type
// implements it.
type Object interface {
	// PageLSN returns the LSN of the last logged change to this page; the
	// pool flushes the log up to it before write-back.
	PageLSN() wal.LSN
	// Marshal serializes the object into exactly pageSize bytes.
	Marshal(pageSize int) ([]byte, error)
}

// Framed is implemented by Objects that want the handle of the frame caching
// them, so their holder can Unpin and MarkDirty without a table lookup. The
// pool calls SetFrame once, before the object becomes visible to Fetch.
type Framed interface {
	SetFrame(*Frame)
}

// Codec deserializes page images into Objects.
type Codec interface {
	Unmarshal(data []byte) (Object, error)
}

// ErrPoolFull means every frame stayed pinned for the pool's whole wait
// budget (one second), so nothing could be evicted to make room. Each
// concurrent tree operation holds at most three pins; a pool smaller than
// three frames per concurrent operation can run into it.
var ErrPoolFull = errors.New("buffer: all frames pinned")

// Frame word layout: bits 0-1 state, bit 2 clock reference bit, bit 3 dirty
// bit, bits 4-63 pin count.
const (
	stateFree uint64 = iota
	stateLoading
	stateReady
	stateEvicting
	stateMask uint64 = 3

	refBit   uint64 = 1 << 2
	dirtyBit uint64 = 1 << 3
	pinShift        = 4
	pinOne   uint64 = 1 << pinShift
)

// Frame is one slot of the pool, and the handle a pin holder uses to release
// it. Frames are padded to a cache line so pins of neighbouring frames do not
// share one.
type Frame struct {
	word atomic.Uint64 // state | ref | dirty | pins
	hits atomic.Uint64 // fetches this slot served from memory, all ids
	id   atomic.Uint64 // page.PageID; 0 while the frame is in no chain
	next atomic.Pointer[Frame]
	obj  Object // written by the frame's owner, read under a pin
	_    [16]byte
}

// Unpin releases one pin. If dirty is true the object is marked modified and
// will be written back before eviction.
func (f *Frame) Unpin(dirty bool) {
	if dirty {
		f.MarkDirty()
	}
	if w := f.word.Add(^(pinOne - 1)); int64(w) < 0 { // the subtraction borrowed
		panic(fmt.Sprintf("buffer: Unpin of unpinned page %d", f.id.Load()))
	}
}

// MarkDirty flags a pinned object as modified.
func (f *Frame) MarkDirty() {
	for {
		w := f.word.Load()
		if w>>pinShift == 0 {
			panic(fmt.Sprintf("buffer: MarkDirty of unpinned page %d", f.id.Load()))
		}
		if w&dirtyBit != 0 || f.word.CompareAndSwap(w, w|dirtyBit) {
			return
		}
	}
}

// pin takes a pin on f if it is ready and (still) caches id.
func (f *Frame) pin(id page.PageID) bool {
	for {
		w := f.word.Load()
		if w&stateMask != stateReady {
			return false
		}
		if !f.word.CompareAndSwap(w, (w+pinOne)|refBit) {
			continue
		}
		if f.id.Load() == uint64(id) {
			return true
		}
		// Evicted and reused for another page between the table read and
		// the CAS: the pin landed on the wrong page.
		f.Unpin(false)
		return false
	}
}

// pinDirty pins a ready, dirty frame and clears its dirty bit, for FlushAll.
func (f *Frame) pinDirty() bool {
	for {
		w := f.word.Load()
		if w&dirtyBit == 0 || w&stateMask != stateReady {
			return false
		}
		if f.word.CompareAndSwap(w, (w+pinOne)&^dirtyBit) {
			return true
		}
	}
}

// claimUnpinned moves a ready, unpinned frame to evicting, making the caller
// its owner.
func (f *Frame) claimUnpinned() bool {
	for {
		w := f.word.Load()
		if w&stateMask != stateReady || w>>pinShift != 0 {
			return false
		}
		if f.word.CompareAndSwap(w, w&^stateMask|stateEvicting) {
			return true
		}
	}
}

// bucket is one chain of the page table. mu serializes changes to the chain;
// readers follow head and Frame.next without it.
type bucket struct {
	mu   sync.Mutex
	head atomic.Pointer[Frame]
}

func (b *bucket) find(id page.PageID) *Frame {
	for f := b.head.Load(); f != nil; f = f.next.Load() {
		if f.id.Load() == uint64(id) {
			return f
		}
	}
	return nil
}

// push links f, already carrying its id, state and object. Caller holds mu.
func (b *bucket) push(f *Frame) {
	f.next.Store(b.head.Load())
	b.head.Store(f)
}

// remove unlinks f and clears its id. f.next is left alone: a reader
// standing on f continues down the chain it was following. Caller holds mu.
func (b *bucket) remove(f *Frame) {
	if b.head.Load() == f {
		b.head.Store(f.next.Load())
	} else {
		prev := b.head.Load()
		for prev.next.Load() != f {
			prev = prev.next.Load()
		}
		prev.next.Store(f.next.Load())
	}
	f.id.Store(0)
}

// Stats counts pool activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
	Resident   int
	Pinned     int
}

// Pool is the buffer pool. All methods are safe for concurrent use.
type Pool struct {
	store storage.Store
	log   *wal.Log // may be nil: volatile configurations skip the WAL rule
	codec Codec

	frames  []Frame
	buckets []bucket
	shift   uint          // 64 - log2(len(buckets))
	hand    atomic.Uint32 // clock hand over frames

	freeMu sync.Mutex
	free   []*Frame // frames in no chain, state free

	// waitMu and cond park fetchers of a page that is loading or evicting;
	// every transition out of those states broadcasts.
	waitMu sync.Mutex
	cond   *sync.Cond

	// fullWait bounds how long claim and Insert wait for an unpin.
	fullWait time.Duration

	misses     atomic.Uint64
	evictions  atomic.Uint64
	writeBacks atomic.Uint64

	// obs, when set, is told how long page loads and write-backs take.
	// Set once (SetObserver) before the pool sees traffic.
	obs Observer
}

// Observer receives page I/O latencies. *obs.Registry implements it.
type Observer interface {
	PageLoad(d time.Duration)
	WriteBack(d time.Duration)
}

// SetObserver installs o as the pool's I/O observer. It must be called
// before the pool is shared between goroutines.
func (p *Pool) SetObserver(o Observer) { p.obs = o }

// NewPool creates a pool of capacity frames over store. log may be nil when
// no write-ahead logging is configured.
func NewPool(store storage.Store, log *wal.Log, codec Codec, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	logBuckets := uint(bits.Len(uint(2*capacity - 1))) // ≥ 2 buckets per frame
	p := &Pool{
		store:    store,
		log:      log,
		codec:    codec,
		frames:   make([]Frame, capacity),
		buckets:  make([]bucket, 1<<logBuckets),
		shift:    64 - logBuckets,
		free:     make([]*Frame, capacity),
		fullWait: time.Second,
	}
	for i := range p.frames {
		p.free[capacity-1-i] = &p.frames[i]
	}
	p.cond = sync.NewCond(&p.waitMu)
	return p
}

func (p *Pool) bucket(id page.PageID) *bucket {
	return &p.buckets[uint64(id)*0x9E3779B97F4A7C15>>p.shift]
}

// Fetch pins the object for id, loading it from the store if absent. The
// caller must Unpin when done.
func (p *Pool) Fetch(id page.PageID) (Object, error) {
	obj, _, err := p.FetchMiss(id)
	return obj, err
}

// FetchMiss is Fetch with a miss report: the bool is true when this call
// loaded the object from the store (a pool miss) rather than finding it
// resident. Span tracing uses it to split fetch time into buffer-hit vs
// page-load stages.
func (p *Pool) FetchMiss(id page.PageID) (Object, bool, error) {
	for {
		f := p.bucket(id).find(id)
		if f == nil {
			// Not resident — or the chain changed under the unlocked read,
			// which load's locked re-check sorts out.
			if obj, loaded, err := p.load(id); loaded || err != nil {
				return obj, true, err
			}
			continue
		}
		if f.pin(id) {
			f.hits.Add(1)
			return f.obj, false, nil
		}
		p.await(f, id) // loading or evicting; returns at once if f was recycled
	}
}

// load makes id resident and pinned on the caller's behalf. loaded is false
// when another goroutine installed the page first; the caller retries.
func (p *Pool) load(id page.PageID) (obj Object, loaded bool, err error) {
	f, err := p.claim()
	if err != nil {
		return nil, false, err
	}
	b := p.bucket(id)
	b.mu.Lock()
	if b.find(id) != nil {
		b.mu.Unlock()
		p.release(f)
		return nil, false, nil
	}
	f.id.Store(uint64(id))
	f.word.Store(stateLoading | refBit | pinOne)
	b.push(f)
	b.mu.Unlock()
	p.misses.Add(1)

	var t0 time.Time
	if p.obs != nil {
		t0 = time.Now()
	}
	data, err := p.store.Read(id)
	if err == nil {
		obj, err = p.codec.Unmarshal(data)
	}
	if p.obs != nil {
		p.obs.PageLoad(time.Since(t0))
	}
	if err != nil {
		p.unlink(f)
		p.release(f)
		p.wake()
		return nil, false, err
	}
	p.publish(f, obj, stateReady|refBit|pinOne)
	p.wake()
	return obj, true, nil
}

// publish makes the frame's owner's object visible: everything written here
// happens before any pin that observes the new word.
func (p *Pool) publish(f *Frame, obj Object, word uint64) {
	f.obj = obj
	if fr, ok := obj.(Framed); ok {
		fr.SetFrame(f)
	}
	f.word.Store(word)
}

// await blocks while f is loading or evicting id (and not otherwise).
func (p *Pool) await(f *Frame, id page.PageID) {
	p.waitMu.Lock()
	for f.id.Load() == uint64(id) {
		if s := f.word.Load() & stateMask; s != stateLoading && s != stateEvicting {
			break
		}
		p.cond.Wait()
	}
	p.waitMu.Unlock()
}

// wake releases awaiters after a transition. Taking waitMu orders the
// broadcast after any awaiter that saw the old state has parked.
func (p *Pool) wake() {
	p.waitMu.Lock()
	p.cond.Broadcast()
	p.waitMu.Unlock()
}

// discard drops f, linked in b, without write-back — unless it is pinned or
// in transition. Caller holds b.mu.
func (p *Pool) discard(b *bucket, f *Frame) bool {
	if !f.claimUnpinned() {
		return false
	}
	b.remove(f)
	p.release(f)
	p.wake()
	return true
}

// unlink takes an owned frame out of its page's chain.
func (p *Pool) unlink(f *Frame) {
	b := p.bucket(page.PageID(f.id.Load()))
	b.mu.Lock()
	b.remove(f)
	b.mu.Unlock()
}

// release returns an owned, unlinked frame to the free list.
func (p *Pool) release(f *Frame) {
	f.obj = nil
	f.word.Store(stateFree)
	p.freeMu.Lock()
	p.free = append(p.free, f)
	p.freeMu.Unlock()
}

// pollUnpin sleeps before the try-th re-check of a wait for an unpin, which
// is a bare decrement and wakes nobody; the wait began at *since (set on the
// first call). It reports false once the fullWait budget is spent.
func (p *Pool) pollUnpin(since *time.Time, try int) bool {
	if since.IsZero() {
		*since = time.Now()
	} else if time.Since(*since) > p.fullWait {
		return false
	}
	time.Sleep(time.Duration(min(try+1, 100)) * 10 * time.Microsecond)
	return true
}

// claim returns a frame owned by the caller and linked nowhere: a free one,
// else an evicted victim. When every frame is pinned it waits for an unpin,
// and gives up with ErrPoolFull after fullWait.
func (p *Pool) claim() (*Frame, error) {
	var since time.Time
	for try := 0; ; try++ {
		p.freeMu.Lock()
		if n := len(p.free); n > 0 {
			f := p.free[n-1]
			p.free = p.free[:n-1]
			p.freeMu.Unlock()
			return f, nil
		}
		p.freeMu.Unlock()
		if f, err := p.evict(); f != nil || err != nil {
			return f, err
		}
		if !p.pollUnpin(&since, try) {
			return nil, ErrPoolFull
		}
	}
}

// evict runs the clock hand over the frame array: the first sweep clears
// reference bits, the second takes the first frame that is still unpinned
// and unreferenced. A dirty victim is written back (honoring the WAL rule)
// while it stays in its chain as evicting, so a concurrent fetch of the page
// waits for the write instead of reading the old image. It returns nil, nil
// when nothing is evictable.
func (p *Pool) evict() (*Frame, error) {
	n := uint32(len(p.frames))
	for i := uint32(0); i < 2*n; i++ {
		f := &p.frames[(p.hand.Add(1)-1)%n]
		w := f.word.Load()
		if w&stateMask != stateReady || w>>pinShift != 0 {
			continue
		}
		if w&refBit != 0 {
			f.word.CompareAndSwap(w, w&^refBit)
			continue
		}
		if !f.word.CompareAndSwap(w, w&^stateMask|stateEvicting) {
			continue
		}
		id := page.PageID(f.id.Load())
		if w&dirtyBit != 0 {
			if err := p.writeBack(id, f.obj); err != nil {
				f.word.Store(w)
				p.wake()
				return nil, err
			}
		}
		p.unlink(f)
		p.evictions.Add(1)
		p.wake()
		return f, nil
	}
	return nil, nil
}

// Insert registers a freshly allocated page's object in the pool, pinned and
// dirty. The page must already be allocated in the store. A frame still
// resident for id is stale by construction — the allocator handed the id out,
// so whatever was cached under it belongs to a page since deallocated, or was
// read by a latch-free descent in the instant before this call — and is
// replaced; if it is pinned or loading, Insert waits for its holder, who will
// fail validation and back off.
func (p *Pool) Insert(id page.PageID, obj Object) error {
	f, err := p.claim()
	if err != nil {
		return err
	}
	b := p.bucket(id)
	var since time.Time
	for try := 0; ; try++ {
		b.mu.Lock()
		stale := b.find(id)
		if stale == nil {
			break
		}
		if p.discard(b, stale) {
			break
		}
		b.mu.Unlock()
		if !p.pollUnpin(&since, try) {
			p.release(f)
			return fmt.Errorf("buffer: Insert of page %d: stale frame stayed pinned", id)
		}
	}
	f.id.Store(uint64(id))
	p.publish(f, obj, stateReady|dirtyBit|refBit|pinOne)
	b.push(f)
	b.mu.Unlock()
	p.wake() // a reader that reached f by a stale pointer saw (id, evicting)
	return nil
}

// find returns id's frame, falling back to a locked read of the chain when
// the unlocked one misses (a frame ahead of it may have been recycled into
// another chain mid-walk).
func (p *Pool) find(id page.PageID) *Frame {
	b := p.bucket(id)
	f := b.find(id)
	if f == nil {
		b.mu.Lock()
		f = b.find(id)
		b.mu.Unlock()
	}
	return f
}

// Unpin releases one pin on id by table lookup, for callers that did not
// keep the Frame handle.
func (p *Pool) Unpin(id page.PageID, dirty bool) {
	f := p.find(id)
	if f == nil {
		panic(fmt.Sprintf("buffer: Unpin of unpinned page %d", id))
	}
	f.Unpin(dirty)
}

// DiscardIfUnpinned removes id's frame without write-back if no pins are
// outstanding, then runs release (typically the store deallocation) while
// still holding the page's bucket mutex, so a concurrent Fetch cannot reload
// the page's stale image between frame removal and deallocation. It returns
// false (and does not call release) if the frame is pinned; the caller
// retries later. A non-resident page is discarded trivially.
func (p *Pool) DiscardIfUnpinned(id page.PageID, release func() error) (bool, error) {
	b := p.bucket(id)
	b.mu.Lock()
	defer b.mu.Unlock()
	if f := b.find(id); f != nil && !p.discard(b, f) {
		return false, nil
	}
	if release == nil {
		return true, nil
	}
	return true, release()
}

// writeBack marshals and writes one object, flushing the log first.
func (p *Pool) writeBack(id page.PageID, obj Object) error {
	var t0 time.Time
	if p.obs != nil {
		t0 = time.Now()
		defer func() { p.obs.WriteBack(time.Since(t0)) }()
	}
	if p.log != nil {
		if err := p.log.Flush(obj.PageLSN()); err != nil {
			return err
		}
	}
	data, err := obj.Marshal(p.store.PageSize())
	if err != nil {
		return err
	}
	if err := p.store.Write(id, data); err != nil {
		return err
	}
	p.writeBacks.Add(1)
	return nil
}

// FlushAll writes back every dirty ready page (pinned or not) without
// evicting. Used by checkpoints; the caller must ensure no page is being
// modified concurrently (the tree quiesces or holds latches). The dirty bit
// is cleared before the write, so a page dirtied again meanwhile stays dirty.
func (p *Pool) FlushAll() error {
	for i := range p.frames {
		f := &p.frames[i]
		if !f.pinDirty() {
			continue
		}
		err := p.writeBack(page.PageID(f.id.Load()), f.obj)
		f.Unpin(err != nil)
		if err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns current pool statistics.
func (p *Pool) Snapshot() Stats {
	s := Stats{
		Misses:     p.misses.Load(),
		Evictions:  p.evictions.Load(),
		WriteBacks: p.writeBacks.Load(),
	}
	for i := range p.frames {
		f := &p.frames[i]
		s.Hits += f.hits.Load()
		if w := f.word.Load(); w&stateMask != stateFree {
			s.Resident++
			if w>>pinShift > 0 {
				s.Pinned++
			}
		}
	}
	return s
}
