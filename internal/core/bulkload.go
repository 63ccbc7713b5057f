package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"blinktree/internal/latch"
	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// ErrNotEmpty is returned by BulkLoad on a tree that already has records.
var ErrNotEmpty = errors.New("blinktree: bulk load requires an empty tree")

// defaultChunkPages is the number of leaves grouped into one chunk when
// Options.BulkChunkPages is zero. A chunk is the unit of page-ID leasing, of
// WAL logging (one SMOBulkChunk record of allocations), of hand-off to a
// builder goroutine and of store writes (one run per chunk).
const defaultChunkPages = 64

// BulkLoad populates an empty tree from strictly ascending (key, value)
// pairs, building it bottom-up: leaves are packed to fill*PageSize, then
// each index level is built over the one below. This is far faster than
// repeated Put (no traversals, no splits) and yields a tree at the chosen
// fill factor.
//
// The calling goroutine cuts the stream into chunks of whole leaves, each
// under one page-ID lease; builder goroutines, one per GOMAXPROCS, turn the
// chunks into pages, and the caller stitches the seams between chunks and
// builds the index levels. A tree opened with WorkersNone starts no
// goroutine: it builds each chunk on the caller, into the same pages.
//
// next returns the stream; ok=false ends it. fill in (0,1] defaults to
// 0.85. The tree must be empty; concurrent operations are blocked for the
// duration (the load holds the checkpoint gate exclusively). With logging
// enabled the load logs its allocations in chunk records and writes each
// page once: the leaves straight to the store, one write per chunk after its
// record is forced, never entering the buffer pool (so none is resident
// after the load); the index levels through the pool. It forces them all,
// and only then appends the commit record, followed by a checkpoint: after a
// crash the load either happened completely or not at all.
func (t *Tree) BulkLoad(next func() (key, val []byte, ok bool), fill float64) error {
	if t.closed.Load() {
		return ErrClosed
	}
	t.gate.Lock()
	defer t.gate.Unlock()
	if t.closed.Load() {
		return ErrClosed
	}
	t.todo.drain() // quiesce pending maintenance before replacing the root
	if fill <= 0 || fill > 1 {
		fill = 0.85
	}

	// Emptiness: the anchor level rules out any multi-level tree without
	// touching a page; only a level-0 root needs fetching, to distinguish
	// a fresh (or fully emptied) tree from one still holding records.
	oldRoot, oldLevel := t.readAnchor()
	if oldLevel != 0 {
		return ErrNotEmpty
	}
	r, err := t.fetch(oldRoot)
	if err != nil {
		return err
	}
	empty := r.c.Recs.Len() == 0
	t.unpin(r)
	if !empty {
		return ErrNotEmpty
	}

	s := &bulkSession{t: t, target: int(fill * float64(t.opts.PageSize))}
	s.chunk, s.group, s.builders = t.bulkShape()
	if t.log != nil {
		s.sid = t.txnSeq.Add(1)
	}

	done := false
	var root *node
	defer func() {
		if done {
			return
		}
		// Failed load: every reserved page is unreferenced (the anchor
		// never flipped); release and free them so nothing leaks. The
		// phases have already unpinned whatever they had pinned.
		if root != nil {
			t.unpin(root)
		}
		for _, id := range s.allocated {
			t.reclaim(id)
		}
	}()

	if err := s.loadLeaves(next); err != nil {
		return err
	}
	rootID, err := s.buildIndexLevels()
	if err != nil {
		return err
	}
	// Pinned before the commit point: the pin becomes the anchor's.
	if root, err = t.fetch(rootID); err != nil {
		return err
	}

	// Commit point: one record naming the new root seals the session — its
	// presence makes every chunk of this session redoable, its absence
	// makes recovery release the chunks' allocations, so the load is atomic
	// across any crash point despite spanning many records. The chunks
	// carry no images, so every page of the load is forced first: the
	// commit record never names a page the store could still lose.
	if t.log != nil {
		if err := t.pool.FlushAll(); err != nil {
			return err
		}
		if err := t.store.Sync(); err != nil {
			return err
		}
		if _, err := t.log.Append(&wal.Record{
			Type:     wal.TSMO,
			SMO:      wal.SMOBulkCommit,
			Txn:      s.sid,
			Root:     rootID,
			Deallocs: []page.PageID{oldRoot},
		}); err != nil {
			return err
		}
		if err := t.log.FlushAll(); err != nil {
			return err
		}
	}

	t.anchorMu.Lock()
	t.setAnchor(root, false)
	t.anchorMu.Unlock()
	done = true
	t.c.bulkLoadPages.Add(s.pages)
	t.c.bulkLoadChunks.Add(s.chunks)

	// The formatting leaf is unreachable now; retire it. Its deletion is a
	// leaf delete under no parent, so no delete-state update is needed —
	// nothing can hold a reference to an empty just-formatted root.
	old, err := t.fetch(oldRoot)
	if err == nil {
		old.latch.Acquire(latch.Exclusive)
		old.dead = true
		old.latch.Release(latch.Exclusive)
		t.unpin(old)
		t.reclaim(oldRoot)
	}

	// Load-completion checkpoint: bound redo past the load, so no later
	// recovery replays it, and make the loaded pages "before the
	// checkpoint": the first change to each logs its image.
	if t.log != nil {
		return t.checkpointLocked()
	}
	return nil
}

// bulkChild is one node of the level below the one being built: its low
// fence and page ID, all an index level needs.
type bulkChild struct {
	low []byte
	id  page.PageID
}

// bulkSession carries the state of one load across its phases.
type bulkSession struct {
	t        *Tree
	target   int    // fill * PageSize
	chunk    int    // leaves per chunk
	group    int    // index nodes per pending group
	builders int    // builder goroutines; 0 builds each chunk on the caller
	sid      uint64 // WAL bulk session ID (Record.Txn)

	// allocated records every page this load reserved, for reclamation if
	// the load fails before the anchor flip.
	allocated []page.PageID

	// level accumulates (low fence, page ID) of the level most recently
	// completed, bottom-up.
	level []bulkChild

	// pending holds built-but-unlogged nodes of the index-level build;
	// flushPending logs and unpins them.
	pending []*node

	pages  uint64 // nodes built
	chunks uint64 // chunk groups logged/flushed
}

// bulkShape resolves the chunk size, the index build's pending group and the
// builder count: one builder per GOMAXPROCS, none under WorkersNone. Leaves
// never enter the buffer pool, so only the pending group — index nodes stay
// pinned until their chunk record is logged — is clamped, to leave the pool
// 8 frames to spare.
func (t *Tree) bulkShape() (chunk, group, builders int) {
	chunk = t.opts.BulkChunkPages
	if chunk <= 0 {
		chunk = defaultChunkPages
	}
	group = max(min(chunk, t.opts.CacheSize-8), 1)
	if t.opts.Workers == 0 { // WorkersNone, after New
		return chunk, group, 0
	}
	return chunk, group, runtime.GOMAXPROCS(0)
}

// leafBoundary reports whether adding an entry of the given key/value sizes
// would overfill the open leaf. size is the leaf's current serialized size.
// len(k) extra bytes are reserved for the high fence the leaf will receive
// when it closes: the separator is never longer than the first key of the
// next leaf, so the reservation is a safe upper bound — without it a load
// at fill=1.0 could build a leaf that no longer fits once its fence is set.
func (s *bulkSession) leafBoundary(size, nkeys, klen, vlen int) bool {
	return nkeys > 0 && size+page.EntrySize(page.Leaf, klen, vlen)+klen > s.target
}

// boundarySep returns the fence separating two adjacent leaves: the
// shortest byte string above the last key of the left leaf under bytewise
// ordering (suffix truncation, same as leaf splits), or an exact copy of
// the right leaf's first key under a custom comparator.
func (s *bulkSession) boundarySep(prevKey, k []byte) []byte {
	if s.t.bytewise {
		return shortestSeparator(prevKey, k)
	}
	return append([]byte(nil), k...)
}

// logChunk logs one chunk of freshly built index nodes (one SMOBulkChunk
// record of their allocations, its LSN stamped on each), publishes their
// routing snapshots and unpins them dirty. The nodes were private until
// now; they stay unreachable until the anchor flip, and once unpinned they
// may be evicted: the WAL rule then forces the record — which is what lets
// recovery release the pages if the load never commits — before the page
// is written. The page itself is the only copy of its contents.
func (s *bulkSession) logChunk(nodes []*node) error {
	if len(nodes) == 0 {
		return nil
	}
	t := s.t
	if t.log != nil {
		allocs := make([]page.PageID, len(nodes))
		for i, n := range nodes {
			allocs[i] = n.id
		}
		_, err := t.log.AppendFunc(func(lsn wal.LSN) *wal.Record {
			for _, n := range nodes {
				n.c.LSN = uint64(lsn)
				n.c.Epoch = uint64(lsn)
			}
			return &wal.Record{Type: wal.TSMO, SMO: wal.SMOBulkChunk, Txn: s.sid, Allocs: allocs}
		})
		if err != nil {
			return err
		}
	}
	for _, n := range nodes {
		n.publishRoute()
		n.frame.Unpin(true)
	}
	s.pages += uint64(len(nodes))
	s.chunks++
	return nil
}

// flushPending logs and releases the accumulated pending nodes. On a log
// failure the nodes are unpinned anyway (the load is aborting).
func (s *bulkSession) flushPending() error {
	if len(s.pending) == 0 {
		return nil
	}
	if err := s.logChunk(s.pending); err != nil {
		s.unpinPending()
		return err
	}
	s.pending = s.pending[:0]
	return nil
}

// unpinPending releases the pending nodes without logging (failure path).
func (s *bulkSession) unpinPending() {
	for _, n := range s.pending {
		s.t.unpin(n)
	}
	s.pending = s.pending[:0]
}

// allocTracked allocates a node and records its page for failure cleanup.
func (s *bulkSession) allocTracked(c page.Content) (*node, error) {
	n, err := s.t.allocNode(c)
	if err != nil {
		return nil, err
	}
	// The load runs alone behind the checkpoint gate: nothing can reach the
	// node through a stale reference while it is being filled.
	n.latch.Release(latch.Exclusive)
	s.allocated = append(s.allocated, n.id)
	return n, nil
}

// bulkEnt locates one entry inside a chunk arena: the key starts at off,
// the value follows it immediately.
type bulkEnt struct {
	off  int
	klen int
	vlen int
}

// bulkLeafSpec describes one leaf of a chunk: its first entry index and its
// low fence (an owned copy, produced by the coordinator's boundary rule).
type bulkLeafSpec struct {
	start int
	low   []byte
}

// bulkChunk is the unit of hand-off between the coordinator and a builder:
// a contiguous key-range of whole leaves, the arena holding their bytes,
// the page-ID lease the leaves take and the chunk record that logs it.
type bulkChunk struct {
	buf    []byte
	ents   []bulkEnt
	leaves []bulkLeafSpec
	ids    []page.PageID

	// lsn is the chunk record's LSN, every leaf's page LSN (zero without a
	// log); epoch is every leaf's incarnation number.
	lsn, epoch uint64

	// Seam stitching: the low fence and page ID of the next chunk's first
	// leaf, filled in by the coordinator when that chunk is sealed; zero
	// on the final chunk (its last leaf keeps High=nil, Right=0).
	nextLow []byte
	nextID  page.PageID

	// done is closed when the build is finished; err is its outcome.
	err  error
	done chan struct{}
}

// bulkScratch is a builder's reused memory: the run buffer its chunks'
// leaves are encoded into (made at its first chunk), and one leaf's key and
// value slices.
type bulkScratch struct {
	run        []byte
	keys, vals [][]byte
}

// loadLeaves is the leaf build. The coordinator (the calling goroutine)
// streams entries into per-chunk arenas and decides every leaf boundary. It
// seals a full chunk — one page-ID lease, one chunk record — and, once the
// next chunk is sealed and the seam is known, hands it to a builder
// goroutine, or builds it itself when there are none. A builder encodes the
// leaves and writes them to the store; the coordinator finishes chunks
// strictly in key order, at most max(builders, 1) in flight, and reuses a
// finished chunk's memory for the next. So memory stays bounded, the WAL
// sees chunk records in ascending key order, and every builder count builds
// the same pages.
func (s *bulkSession) loadLeaves(next func() (key, val []byte, ok bool)) error {
	t := s.t
	var dispatch func(c *bulkChunk)
	if s.builders > 0 {
		// A slot per builder: under the window below, a send waits at most
		// for an idle builder to take a chunk.
		in := make(chan *bulkChunk, s.builders)
		var wg sync.WaitGroup
		for range s.builders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sc bulkScratch
				for c := range in {
					s.buildChunk(c, &sc)
				}
			}()
		}
		defer wg.Wait()
		defer close(in)
		dispatch = func(c *bulkChunk) { in <- c }
	} else {
		var sc bulkScratch
		dispatch = func(c *bulkChunk) { s.buildChunk(c, &sc) }
	}
	window := max(s.builders, 1)

	var (
		held     *bulkChunk   // sealed, waiting for the next chunk's seam
		inflight []*bulkChunk // dispatched, unfinished, in key order
		spare    []*bulkChunk // finished, memory free for reuse
	)
	abort := func(err error) error {
		for _, c := range inflight {
			<-c.done
		}
		return err
	}
	finish := func() error {
		c := inflight[0]
		inflight = inflight[1:]
		<-c.done
		if c.err != nil {
			return c.err
		}
		for i, lf := range c.leaves {
			s.level = append(s.level, bulkChild{low: lf.low, id: c.ids[i]})
		}
		s.pages += uint64(len(c.leaves))
		s.chunks++
		spare = append(spare, c)
		return nil
	}
	send := func(c *bulkChunk) error {
		inflight = append(inflight, c)
		dispatch(c)
		if len(inflight) > window {
			return finish()
		}
		return nil
	}

	arenaCap := s.chunk * s.target
	newChunk := func(low []byte) *bulkChunk {
		c := &bulkChunk{done: make(chan struct{})}
		if n := len(spare); n > 0 {
			old := spare[n-1]
			spare = spare[:n-1]
			c.buf, c.ents, c.leaves = old.buf[:0], old.ents[:0], old.leaves[:0]
		} else {
			c.buf = make([]byte, 0, arenaCap)
		}
		c.leaves = append(c.leaves, bulkLeafSpec{start: 0, low: low})
		return c
	}
	cur := newChunk([]byte{})

	seal := func(c *bulkChunk) error {
		ids, err := storage.AllocateBatch(t.store, len(c.leaves))
		if err != nil {
			return err
		}
		s.allocated = append(s.allocated, ids...)
		c.ids = ids
		if t.log != nil {
			lsn, err := t.log.Append(&wal.Record{Type: wal.TSMO, SMO: wal.SMOBulkChunk, Txn: s.sid, Allocs: ids})
			if err != nil {
				return err
			}
			c.lsn, c.epoch = uint64(lsn), uint64(lsn)
		} else {
			c.epoch = t.epochGen.Add(1)
		}
		prev := held
		held = c
		if prev == nil {
			return nil
		}
		prev.nextLow, prev.nextID = c.leaves[0].low, ids[0]
		return send(prev)
	}

	leafBase := (&page.Content{Kind: page.Leaf}).Size()
	leafSize := leafBase // open leaf's serialized size (Low is empty)
	leafEnts := 0
	var prevKey []byte // last appended key, aliasing a chunk arena

	for {
		k, v, ok := next()
		if !ok {
			break
		}
		if err := t.validateEntry(k, v); err != nil {
			return abort(err)
		}
		if s.leafBoundary(leafSize, leafEnts, len(k), len(v)) {
			// The boundary pair is ordering-checked here; buildChunk
			// checks the pairs interior to each leaf. Together every adjacent
			// pair is checked exactly once.
			if t.cmp(prevKey, k) >= 0 {
				return abort(fmt.Errorf("blinktree: bulk load keys not strictly ascending at %q", k))
			}
			sep := s.boundarySep(prevKey, k)
			if len(cur.leaves) >= s.chunk {
				if err := seal(cur); err != nil {
					return abort(err)
				}
				cur = newChunk(sep)
			} else {
				cur.leaves = append(cur.leaves, bulkLeafSpec{start: len(cur.ents), low: sep})
			}
			leafSize = leafBase + len(sep)
			leafEnts = 0
		}
		off := len(cur.buf)
		cur.buf = append(cur.buf, k...)
		cur.buf = append(cur.buf, v...)
		cur.ents = append(cur.ents, bulkEnt{off: off, klen: len(k), vlen: len(v)})
		prevKey = cur.buf[off : off+len(k)]
		leafSize += page.EntrySize(page.Leaf, len(k), len(v))
		leafEnts++
	}

	// Final (possibly partial, possibly empty) chunk, then drain in order.
	if err := seal(cur); err != nil {
		return abort(err)
	}
	if err := send(held); err != nil {
		return abort(err)
	}
	for len(inflight) > 0 {
		if err := finish(); err != nil {
			return abort(err)
		}
	}
	return nil
}

// buildChunk encodes one sealed, seam-stitched chunk into the builder's run
// buffer and writes it to the store, on a builder goroutine or the
// coordinator. The leaves never become nodes or frames: keys and values go
// from the chunk arena straight into the page images. Two rules make the
// direct write safe. The WAL rule: the chunk record — what lets recovery
// release the pages if the load never commits — is forced first, as the
// pool's write-back would force it. And a frame still cached for a reused
// page ID is discarded first, so neither a stale read nor a stale
// write-back can shadow the new image.
func (s *bulkSession) buildChunk(c *bulkChunk, sc *bulkScratch) {
	defer close(c.done)
	t := s.t
	ps := t.opts.PageSize
	if sc.run == nil {
		sc.run = make([]byte, s.chunk*ps)
	}
	run := sc.run[:len(c.leaves)*ps]
	for i, lf := range c.leaves {
		cont := page.Content{
			ID: c.ids[i], Kind: page.Leaf, LSN: c.lsn, Epoch: c.epoch,
			Low: lf.low, High: c.nextLow, Right: c.nextID,
		}
		end := len(c.ents)
		if i+1 < len(c.leaves) {
			end = c.leaves[i+1].start
			cont.High, cont.Right = c.leaves[i+1].low, c.ids[i+1]
		}
		keys, vals := sc.keys[:0], sc.vals[:0]
		var prev []byte
		for _, e := range c.ents[lf.start:end] {
			k := c.buf[e.off : e.off+e.klen]
			if prev != nil && t.cmp(prev, k) >= 0 {
				c.err = fmt.Errorf("blinktree: bulk load keys not strictly ascending at %q", k)
				return
			}
			prev = k
			keys = append(keys, k)
			vals = append(vals, c.buf[e.off+e.klen:e.off+e.klen+e.vlen])
		}
		sc.keys, sc.vals = keys, vals
		cont.Keys, cont.Vals = keys, vals
		if c.err = page.MarshalInto(&cont, run[i*ps:(i+1)*ps]); c.err != nil {
			return
		}
	}
	if t.log != nil {
		if c.err = t.log.Flush(wal.LSN(c.lsn)); c.err != nil {
			return
		}
	}
	for _, id := range c.ids {
		if ok, _ := t.pool.DiscardIfUnpinned(id, nil); !ok {
			c.err = fmt.Errorf("blinktree: bulk load: reused page %d is pinned", id)
			return
		}
	}
	c.err = storage.WriteRun(t.store, c.ids, run)
}

// buildIndexLevels builds the shared upper levels over the completed leaf
// level, serially, using the same packing rule at every level and the same
// chunked logging as the leaves. Separators are the children's low fences —
// already suffix-truncated by the boundary rule — so index pages inherit
// the short keys, and prefix compression (page.Content.Compress, set by
// allocNode under the bytewise comparator) densifies them further at
// marshal time. Returns the root's page ID.
func (s *bulkSession) buildIndexLevels() (page.PageID, error) {
	t := s.t
	lvl := uint8(0)
	for len(s.level) > 1 {
		lvl++
		children := s.level
		s.level = nil
		fail := func(cur *node, err error) error {
			if cur != nil {
				t.unpin(cur)
			}
			s.unpinPending()
			return err
		}
		cur, err := s.allocTracked(page.Content{
			Kind: page.Index, Level: lvl,
			Low:  []byte{},
			Keys: [][]byte{}, Children: []page.PageID{},
		})
		if err != nil {
			return 0, err
		}
		for _, ch := range children {
			term := page.EntrySize(page.Index, len(ch.low), 0)
			// Same shape as the leaf boundary rule: reserve len(low) for
			// the high fence this node receives when it closes.
			if len(cur.c.Keys) > 0 && cur.size()+term+len(ch.low) > s.target {
				nxt, err := s.allocTracked(page.Content{
					Kind: page.Index, Level: lvl,
					Low:  ch.low,
					Keys: [][]byte{}, Children: []page.PageID{},
				})
				if err != nil {
					return 0, fail(cur, err)
				}
				cur.setHigh(ch.low)
				cur.c.Right = nxt.id
				if err := s.closeIndex(cur); err != nil {
					return 0, fail(nxt, err)
				}
				cur = nxt
			}
			cur.insertIndexTerm(t, ch.low, ch.id)
		}
		if err := s.closeIndex(cur); err != nil {
			return 0, fail(nil, err)
		}
		if err := s.flushPending(); err != nil {
			return 0, err
		}
	}
	return s.level[0].id, nil
}

// closeIndex files a completed index node: it joins the level hand-off list
// for the next level up and the pending group, which is flushed when full.
func (s *bulkSession) closeIndex(n *node) error {
	s.level = append(s.level, bulkChild{low: n.c.Low, id: n.id})
	s.pending = append(s.pending, n)
	if len(s.pending) >= s.group {
		return s.flushPending()
	}
	return nil
}
