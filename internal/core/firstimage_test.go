package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// writeCountingStore counts the writes each page receives, and the write
// calls that delivered them.
type writeCountingStore struct {
	storage.Store
	mu     sync.Mutex
	writes map[page.PageID]int
	calls  int
}

func (s *writeCountingStore) Write(id page.PageID, buf []byte) error {
	s.mu.Lock()
	s.writes[id]++
	s.calls++
	s.mu.Unlock()
	return s.Store.Write(id, buf)
}

// runCountingStore adds storage.RunWriter to a writeCountingStore: one
// call per run, each page of it counted.
type runCountingStore struct {
	*writeCountingStore
	runs int
}

func (s *runCountingStore) WriteRun(ids []page.PageID, buf []byte) error {
	s.mu.Lock()
	s.runs++
	for _, id := range ids {
		s.writes[id]++
	}
	s.mu.Unlock()
	ps := s.PageSize()
	for i, id := range ids {
		if err := s.Store.Write(id, buf[i*ps:(i+1)*ps]); err != nil {
			return err
		}
	}
	return nil
}

// durableRecords decodes every durable frame of dev.
func durableRecords(t *testing.T, dev *wal.MemDevice) []*wal.Record {
	t.Helper()
	frames, err := dev.ReadDurable()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*wal.Record, len(frames))
	for i, f := range frames {
		if recs[i], err = wal.DecodeRecord(f[8:]); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// TestBulkLoadWritesEachPageOnce: a 2 000-key load logs allocations and no
// page bytes, and writes each of its pages to the store exactly once, not
// again at its checkpoint. No page of the load enters the 16-frame pool:
// nothing is evicted during the load and nothing is written back. On a
// store with RunWriter each chunk of each level is one write call; on one
// without, each page is one.
func TestBulkLoadWritesEachPageOnce(t *testing.T) {
	const n, chunk = 2000, 4
	for _, m := range bulkModes {
		for _, runs := range []bool{false, true} {
			counted := &writeCountingStore{Store: storage.NewMemStore(512), writes: map[page.PageID]int{}}
			var store storage.Store = counted
			rs := &runCountingStore{writeCountingStore: counted}
			if runs {
				store = rs
			}
			dev := wal.NewMemDevice()
			tr := newTestTree(t, Options{PageSize: 512, CacheSize: 16, BulkChunkPages: chunk, Store: store, LogDevice: dev, Workers: m.workers})
			name := fmt.Sprintf("%s/runs=%v", m.name, runs)
			// The formatting root goes out first, so the load's write-backs
			// and write calls are its own.
			if err := tr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before := len(durableRecords(t, dev))
			pool0 := tr.pool.Snapshot()
			counted.mu.Lock()
			calls0 := counted.calls
			counted.mu.Unlock()
			if err := tr.BulkLoad(pairFeeder(n), 0.85); err != nil {
				t.Fatal(err)
			}
			pool1 := tr.pool.Snapshot()
			var loaded []page.PageID
			imageBytes, commits := 0, 0
			for _, r := range durableRecords(t, dev)[before:] {
				switch {
				case r.Type == wal.TSMO && r.SMO == wal.SMOBulkChunk:
					loaded = append(loaded, r.Allocs...)
					for _, im := range r.Images {
						imageBytes += len(im.Data)
					}
				case r.Type == wal.TSMO && r.SMO == wal.SMOBulkCommit:
					commits++
				}
			}
			if imageBytes != 0 || commits != 1 {
				t.Fatalf("%s: chunk records hold %d image bytes and %d commits; want 0 and 1", name, imageBytes, commits)
			}
			rep, err := tr.VerifyDeep()
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded) != rep.LivePages || uint64(len(loaded)) != tr.Stats().BulkLoadPages {
				t.Fatalf("%s: chunks allocate %d pages; the tree has %d, the load built %d", name, len(loaded), rep.LivePages, tr.Stats().BulkLoadPages)
			}
			if ev, wb := pool1.Evictions-pool0.Evictions, pool1.WriteBacks-pool0.WriteBacks; ev != 0 || wb != 0 {
				t.Fatalf("%s: the load evicted %d frames and wrote back %d; want 0 and 0", name, ev, wb)
			}
			counted.mu.Lock()
			for _, id := range loaded {
				if w := counted.writes[id]; w != 1 {
					t.Fatalf("%s: page %d written %d times, want once", name, id, w)
				}
			}
			calls := counted.calls + rs.runs - calls0
			counted.mu.Unlock()
			want := rep.LivePages
			if runs {
				want = 0
				for _, nodes := range rep.NodesPerLevel {
					want += (nodes + chunk - 1) / chunk
				}
			}
			if calls != want {
				t.Fatalf("%s: levels of %v nodes took %d write calls, want %d", name, rep.NodesPerLevel, calls, want)
			}
			if cnt, _ := tr.Len(); cnt != n {
				t.Fatalf("%s: Len = %d", name, cnt)
			}
		}
	}
}

// TestDDBumpImageHealsTornParent: the one change nothing else logs. A
// leaf delete under a parent untouched since the checkpoint bumps the
// parent's D_D in access parent, then aborts at the edge (the victim is the
// parent's leftmost child). The parent is dirty, so its write-back can
// tear; the image-only record its D_D bump logged is what heals it.
func TestDDBumpImageHealsTornParent(t *testing.T) {
	store, dev := storage.NewMemStore(512), wal.NewMemDevice()
	open := func() *Tree {
		tr, err := New(Options{PageSize: 512, Workers: WorkersNone, MinFill: 0.4, Store: store, LogDevice: dev})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr := open()
	const n = 200
	for k := 0; k < n; k++ {
		tr.Put(key(k), valb(k))
	}
	tr.DrainTodo()
	if tr.Height() != 1 {
		t.Fatalf("height %d, want 1: the root must be the leaves' parent", tr.Height())
	}
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	parent := tr.RootID()
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.NodeSnapshot(leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	// Empty the leftmost leaf but one record: under MinFill, enqueued for
	// deletion with the root as its parent.
	for _, k := range first.Keys[1:] {
		if err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	s0 := tr.Stats()
	tr.DrainTodo()
	s := tr.Stats()
	if s.DDIncrements != s0.DDIncrements+1 || s.DeleteAbortEdge != s0.DeleteAbortEdge+1 || s.LeafConsolidated != s0.LeafConsolidated {
		t.Fatalf("want one D_D bump and one edge abort, no consolidation: %+v", s)
	}
	// One image for the leaf's first delete, one for the parent's D_D bump.
	if s.FirstChangeImages != 2 {
		t.Fatalf("FirstChangeImages = %d, want 2", s.FirstChangeImages)
	}
	if err := tr.pool.FlushAll(); err != nil { // the write-back the crash tears
		t.Fatal(err)
	}
	tr.FlushLog()
	tr.Abandon()
	last := durableRecords(t, dev)
	if r := last[len(last)-1]; r.Type != wal.TRecOp || r.Op != 0 || r.Page != parent || len(r.Images) != 1 {
		t.Fatalf("last record %v; want the parent's image-only record", r)
	}
	img, _ := store.Read(parent)
	img[len(img)/2] ^= 0xff
	store.Write(parent, img)

	tr = open()
	defer tr.Abandon()
	if rs := tr.RecoveryStats(); rs.CorruptPages != 1 || rs.FullLogRead != "" {
		t.Fatalf("%+v; want the torn parent healed inside the redo window", rs)
	}
	mustVerify(t, tr)
	if cnt, _ := tr.Len(); cnt != n-len(first.Keys)+1 {
		t.Fatalf("Len = %d, want %d", cnt, n-len(first.Keys)+1)
	}
	if got, err := tr.Get(first.Keys[0]); err != nil || !bytes.Equal(got, valb(0)) {
		t.Fatalf("the leftmost leaf's survivor = %q, %v", got, err)
	}
}
