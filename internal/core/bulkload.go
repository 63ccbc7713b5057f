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

// defaultChunkPages is the number of nodes grouped into one chunk when
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
// Every level is built the same way. The calling goroutine cuts the level
// into chunks of whole nodes, each under one page-ID lease; builder
// goroutines, one per GOMAXPROCS, turn the chunks into pages, and the caller
// stitches the seams between chunks. A tree opened with WorkersNone starts
// no goroutine: it builds each chunk on the caller, into the same pages.
//
// next returns the stream; ok=false ends it. fill in (0,1] defaults to
// 0.85. The tree must be empty; concurrent operations are blocked for the
// duration (the load holds the checkpoint gate exclusively). With logging
// enabled the load logs its allocations in chunk records and writes each
// page once, straight to the store: one write per chunk after its record is
// forced. No page of the load enters the buffer pool, so only the root,
// fetched at the commit, is resident after it. The load syncs the store,
// and only then appends the commit record, followed by a checkpoint: after
// a crash the load either happened completely or not at all.
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
	empty := r.c().Recs.Len() == 0
	t.unpin(r)
	if !empty {
		return ErrNotEmpty
	}

	s := &bulkSession{t: t, target: int(fill * float64(t.opts.PageSize))}
	s.chunk, s.builders = t.bulkShape()
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
		// never flipped); release and free them so nothing leaks.
		if root != nil {
			t.unpin(root)
		}
		for _, id := range s.allocated {
			t.reclaim(id)
		}
	}()

	if err := s.buildLevel(0, func() ([]byte, []byte, page.PageID, bool) {
		k, v, ok := next()
		return k, v, 0, ok
	}); err != nil {
		return err
	}
	// Each index level is built over the (low fence, page ID) pairs of the
	// level below, until one node — the root — is left.
	for lvl := uint8(1); len(s.level) > 1; lvl++ {
		children := s.level
		s.level = nil
		i := 0
		if err := s.buildLevel(lvl, func() ([]byte, []byte, page.PageID, bool) {
			if i == len(children) {
				return nil, nil, 0, false
			}
			ch := children[i]
			i++
			return ch.low, nil, ch.id, true
		}); err != nil {
			return err
		}
	}
	rootID := s.level[0].id
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
		old.kill()
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

// bulkSession carries the state of one load across its levels.
type bulkSession struct {
	t        *Tree
	target   int    // fill * PageSize
	chunk    int    // nodes per chunk
	builders int    // builder goroutines; 0 builds each chunk on the caller
	sid      uint64 // WAL bulk session ID (Record.Txn)

	// allocated records every page this load reserved, for reclamation if
	// the load fails before the anchor flip.
	allocated []page.PageID

	// level accumulates (low fence, page ID) of the level most recently
	// completed, bottom-up.
	level []bulkChild

	pages  uint64 // nodes built
	chunks uint64 // chunks built
}

// bulkShape resolves the chunk size and the builder count: one builder per
// GOMAXPROCS, none under WorkersNone. No page of the load enters the buffer
// pool, so the pool's size bounds neither.
func (t *Tree) bulkShape() (chunk, builders int) {
	chunk = t.opts.BulkChunkPages
	if chunk <= 0 {
		chunk = defaultChunkPages
	}
	if t.opts.Workers == 0 { // WorkersNone, after New
		return chunk, 0
	}
	return chunk, runtime.GOMAXPROCS(0)
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

// bulkEnt locates one entry inside a chunk arena: the key starts at off,
// a leaf's value follows it immediately, and an index entry's child is kid.
type bulkEnt struct {
	off  int
	klen int
	vlen int
	kid  page.PageID
}

// bulkNodeSpec describes one node of a chunk: its first entry index and its
// low fence, memory no chunk arena reuses (a leaf's is the separator the
// boundary rule made, an index node's its first child's low fence).
type bulkNodeSpec struct {
	start int
	low   []byte
}

// bulkChunk is the unit of hand-off between the coordinator and a builder:
// a contiguous key-range of whole nodes of one level, the arena holding
// their bytes, the page-ID lease the nodes take and the chunk record that
// logs it.
type bulkChunk struct {
	buf   []byte
	ents  []bulkEnt
	nodes []bulkNodeSpec
	ids   []page.PageID

	// lsn is the chunk record's LSN, every node's page LSN (zero without a
	// log); epoch is every node's incarnation number.
	lsn, epoch uint64

	// Seam stitching: the low fence and page ID of the next chunk's first
	// node, filled in by the coordinator when that chunk is sealed; zero
	// on the level's final chunk (its last node keeps High=nil, Right=0).
	nextLow []byte
	nextID  page.PageID

	// done is closed when the build is finished; err is its outcome.
	err  error
	done chan struct{}
}

// bulkScratch is a builder's reused memory: the run buffer its chunks'
// nodes are encoded into (made at its first chunk), and one node's keys,
// values and children.
type bulkScratch struct {
	run        []byte
	keys, vals [][]byte
	kids       []page.PageID
}

// buildLevel builds one level of the tree from next, whose entries are the
// caller's (key, value) pairs at level 0 and the (low fence, page ID) pairs
// of the level below above it. The coordinator (the calling goroutine)
// streams entries into per-chunk arenas and decides every node boundary. It
// seals a full chunk — one page-ID lease, one chunk record — and, once the
// next chunk is sealed and the seam is known, hands it to a builder
// goroutine, or builds it itself when there are none. A builder encodes the
// nodes and writes them to the store; the coordinator finishes chunks
// strictly in key order, at most max(builders, 1) in flight, reuses a
// finished chunk's memory for the next and appends the chunk's nodes to
// s.level. So memory stays bounded, the WAL sees chunk records in ascending
// key order, level by level, and every builder count builds the same pages.
func (s *bulkSession) buildLevel(lvl uint8, next func() (key, val []byte, kid page.PageID, ok bool)) error {
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
					s.buildChunk(lvl, c, &sc)
				}
			}()
		}
		defer wg.Wait()
		defer close(in)
		dispatch = func(c *bulkChunk) { in <- c }
	} else {
		var sc bulkScratch
		dispatch = func(c *bulkChunk) { s.buildChunk(lvl, c, &sc) }
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
		for i, nd := range c.nodes {
			s.level = append(s.level, bulkChild{low: nd.low, id: c.ids[i]})
		}
		s.pages += uint64(len(c.nodes))
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
			c.buf, c.ents, c.nodes = old.buf[:0], old.ents[:0], old.nodes[:0]
		} else {
			c.buf = make([]byte, 0, arenaCap)
		}
		c.nodes = append(c.nodes, bulkNodeSpec{start: 0, low: low})
		return c
	}
	cur := newChunk([]byte{})

	seal := func(c *bulkChunk) error {
		ids, err := storage.AllocateBatch(t.store, len(c.nodes))
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
		prev.nextLow, prev.nextID = c.nodes[0].low, ids[0]
		return send(prev)
	}

	kind := page.Leaf
	if lvl > 0 {
		kind = page.Index
	}
	base := (&page.Content{Kind: kind}).Size()
	size := base // open node's serialized size (Low is empty)
	ents := 0
	var prevKey []byte // last appended key, aliasing a chunk arena

	for {
		k, v, kid, ok := next()
		if !ok {
			break
		}
		// Only the caller's entries need checking: an index entry's key is
		// a child's low fence, and the leftmost one is empty.
		if lvl == 0 {
			if err := t.validateEntry(k, v); err != nil {
				return abort(err)
			}
		}
		// len(k) extra bytes are reserved for the high fence the node will
		// receive when it closes: it is never longer than the first key of
		// the next node, so the reservation is a safe upper bound — without
		// it a load at fill=1.0 could build a node that no longer fits once
		// its fence is set.
		if ents > 0 && size+page.EntrySize(kind, len(k), len(v))+len(k) > s.target {
			// The boundary pair is ordering-checked here; buildChunk
			// checks the pairs interior to each node. Together every
			// adjacent pair is checked exactly once.
			if t.cmp(prevKey, k) >= 0 {
				return abort(fmt.Errorf("blinktree: bulk load keys not strictly ascending at %q", k))
			}
			// A leaf's low fence is a separator; an index node's is its
			// first child's low fence, so Keys[0] == Low holds.
			sep := k
			if lvl == 0 {
				sep = s.boundarySep(prevKey, k)
			}
			if len(cur.nodes) >= s.chunk {
				if err := seal(cur); err != nil {
					return abort(err)
				}
				cur = newChunk(sep)
			} else {
				cur.nodes = append(cur.nodes, bulkNodeSpec{start: len(cur.ents), low: sep})
			}
			size = base + len(sep)
			ents = 0
		}
		off := len(cur.buf)
		cur.buf = append(cur.buf, k...)
		cur.buf = append(cur.buf, v...)
		cur.ents = append(cur.ents, bulkEnt{off: off, klen: len(k), vlen: len(v), kid: kid})
		prevKey = cur.buf[off : off+len(k)]
		size += page.EntrySize(kind, len(k), len(v))
		ents++
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

// buildChunk encodes one sealed, seam-stitched chunk of level lvl into the
// builder's run buffer and writes it to the store, on a builder goroutine
// or the coordinator. The pages never become nodes or frames: keys, values
// and children go from the chunk arena straight into the page images. Two
// rules make the direct write safe. The WAL rule (§2.1): the chunk record —
// what lets recovery release the pages if the load never commits — is
// forced first, as the pool's write-back would force it. And a frame still
// cached for a reused page ID is discarded first, so neither a stale read
// nor a stale write-back can shadow the new image.
func (s *bulkSession) buildChunk(lvl uint8, c *bulkChunk, sc *bulkScratch) {
	defer close(c.done)
	t := s.t
	ps := t.opts.PageSize
	if sc.run == nil {
		sc.run = make([]byte, s.chunk*ps)
	}
	run := sc.run[:len(c.nodes)*ps]
	kind := page.Leaf
	if lvl > 0 {
		kind = page.Index
	}
	for i, nd := range c.nodes {
		cont := page.Content{
			ID: c.ids[i], Kind: kind, Level: lvl, LSN: c.lsn, Epoch: c.epoch,
			Low: nd.low, High: c.nextLow, Right: c.nextID, Compress: t.bytewise,
		}
		end := len(c.ents)
		if i+1 < len(c.nodes) {
			end = c.nodes[i+1].start
			cont.High, cont.Right = c.nodes[i+1].low, c.ids[i+1]
		}
		keys, vals, kids := sc.keys[:0], sc.vals[:0], sc.kids[:0]
		var prev []byte
		for _, e := range c.ents[nd.start:end] {
			k := c.buf[e.off : e.off+e.klen]
			if prev != nil && t.cmp(prev, k) >= 0 {
				c.err = fmt.Errorf("blinktree: bulk load keys not strictly ascending at %q", k)
				return
			}
			prev = k
			keys = append(keys, k)
			if lvl == 0 {
				vals = append(vals, c.buf[e.off+e.klen:e.off+e.klen+e.vlen])
			} else {
				kids = append(kids, e.kid)
			}
		}
		sc.keys, sc.vals, sc.kids = keys, vals, kids
		cont.Keys, cont.Vals, cont.Children = keys, vals, kids
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
