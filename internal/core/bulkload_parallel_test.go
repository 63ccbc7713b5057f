package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// bulkModes are the two ways BulkLoad builds its chunks: on the calling
// goroutine (WorkersNone) and on builder goroutines (any Workers >= 1).
var bulkModes = []struct {
	name    string
	workers int
}{{"inline", WorkersNone}, {"builders", 1}}

// TestBulkLoadParallelMatchesSerial is the identity property of the one
// level build: builder goroutines, one per GOMAXPROCS, build the tree the
// calling goroutine builds alone under WorkersNone — the same height,
// per-level node counts and records, the same page images, leaves and
// index pages alike, and the same durable log, since page-ID leases and
// chunk records are taken in key order, level by level, either way. The
// chunk is small enough that level 1 spans several chunks, so index chunks
// are built by builders too. The WorkersNone load must start no goroutine:
// the crash harness's deterministic replays rely on it.
func TestBulkLoadParallelMatchesSerial(t *testing.T) {
	const n, chunk = 20000, 8
	load := func(t *testing.T, workers int) (*DeepReport, [][]byte, [][]byte) {
		store, dev := storage.NewMemStore(512), wal.NewMemDevice()
		tr := newTestTree(t, Options{PageSize: 512, Workers: workers, BulkChunkPages: chunk, Store: store, LogDevice: dev})
		base, started, feed := runtime.NumGoroutine(), 0, pairFeeder(n)
		next := func() ([]byte, []byte, bool) {
			started = max(started, runtime.NumGoroutine()-base)
			return feed()
		}
		if err := tr.BulkLoad(next, 0.85); err != nil {
			t.Fatal(err)
		}
		if inline := workers == WorkersNone; inline != (started == 0) {
			t.Fatalf("Workers %d: the load ran beside %d goroutines of its own", workers, started)
		}
		rep, err := tr.VerifyDeep()
		if err != nil {
			t.Fatalf("deep verify: %v", err)
		}
		if rep.Records != n {
			t.Fatalf("records = %d, want %d", rep.Records, n)
		}
		if rep.Height < 2 || rep.NodesPerLevel[1] <= chunk {
			t.Fatalf("height %d, level nodes %v: want level 1 to span more than one %d-node chunk", rep.Height, rep.NodesPerLevel, chunk)
		}
		var images [][]byte
		for id := page.PageID(1); id <= store.Stats().HighestPage; id++ {
			img, _ := store.Read(id) // nil for the retired formatting root
			images = append(images, img)
		}
		frames, err := dev.ReadDurable()
		if err != nil {
			t.Fatal(err)
		}
		return rep, images, frames
	}
	sRep, sImages, sFrames := load(t, WorkersNone)

	for _, k := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("parallel=%d", k), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
			rep, images, frames := load(t, 1)
			if rep.Height != sRep.Height || rep.Records != sRep.Records {
				t.Errorf("height/records = %d/%d, inline %d/%d", rep.Height, rep.Records, sRep.Height, sRep.Records)
			}
			for lvl := range sRep.NodesPerLevel {
				if rep.NodesPerLevel[lvl] != sRep.NodesPerLevel[lvl] {
					t.Errorf("level %d nodes = %d, inline %d",
						lvl, rep.NodesPerLevel[lvl], sRep.NodesPerLevel[lvl])
				}
			}
			if len(images) != len(sImages) {
				t.Fatalf("%d pages, inline %d", len(images), len(sImages))
			}
			for i := range images {
				if !bytes.Equal(images[i], sImages[i]) {
					t.Fatalf("page %d differs from the inline load's", i+1)
				}
			}
			if len(frames) != len(sFrames) {
				t.Fatalf("%d durable log frames, inline %d", len(frames), len(sFrames))
			}
			for i := range frames {
				if !bytes.Equal(frames[i], sFrames[i]) {
					t.Fatalf("durable log frame %d differs from the inline load's", i)
				}
			}
		})
	}
}

// TestBulkLoadParallelCustomComparator checks the non-bytewise path: no
// suffix truncation, no prefix compression, yet inline and builder loads
// still agree structurally.
func TestBulkLoadParallelCustomComparator(t *testing.T) {
	rev := func(a, b []byte) int { return bytes.Compare(a, b) } // bytewise order, custom identity
	const n = 6000
	var reps []*DeepReport
	for _, m := range bulkModes {
		tr := newTestTree(t, Options{PageSize: 512, Compare: rev, Workers: m.workers})
		if err := tr.BulkLoad(pairFeeder(n), 0.85); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		rep, err := tr.VerifyDeep()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		reps = append(reps, rep)
	}
	a, b := reps[0], reps[1]
	if a.Height != b.Height || a.Records != b.Records || a.Records != n {
		t.Fatalf("inline %d/%d vs builders %d/%d height/records", a.Height, a.Records, b.Height, b.Records)
	}
	for lvl := range a.NodesPerLevel {
		if a.NodesPerLevel[lvl] != b.NodesPerLevel[lvl] {
			t.Errorf("level %d nodes = %d inline, %d builders", lvl, a.NodesPerLevel[lvl], b.NodesPerLevel[lvl])
		}
	}
}

// TestBulkLoadParallelStats checks the BulkLoadPages/BulkLoadChunks
// counters: pages equals the audit's node count, chunks is positive.
func TestBulkLoadParallelStats(t *testing.T) {
	for _, m := range bulkModes {
		tr := newTestTree(t, Options{PageSize: 512, BulkChunkPages: 8, Workers: m.workers})
		if err := tr.BulkLoad(pairFeeder(5000), 0.85); err != nil {
			t.Fatal(err)
		}
		rep, err := tr.VerifyDeep()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range rep.NodesPerLevel {
			total += c
		}
		s := tr.Stats()
		if s.BulkLoadPages != uint64(total) {
			t.Errorf("%s: BulkLoadPages = %d, audit reached %d nodes", m.name, s.BulkLoadPages, total)
		}
		if s.BulkLoadChunks == 0 {
			t.Errorf("%s: BulkLoadChunks = 0", m.name)
		}
	}
}

// TestBulkLoadEmptiedByDeletes loads a tree that once held data: grown to
// height >= 1, fully emptied by deletes and shrunk back to a level-0 root.
// BulkLoad must accept it (it holds no records) — the emptiness check is
// anchor-level-first, with the root fetch only disambiguating level 0.
func TestBulkLoadEmptiedByDeletes(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if tr.Height() == 0 {
		t.Fatal("tree did not grow")
	}
	for i := 0; i < n; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Under-utilization is detected during descents, so alternate probe
	// rounds with drains until the root collapses back to a leaf.
	for round := 0; round < 30 && tr.Height() > 0; round++ {
		for i := 0; i < n; i += 37 {
			tr.Get(key(i))
		}
		tr.DrainTodo()
	}
	if h := tr.Height(); h != 0 {
		t.Fatalf("tree did not shrink back to a leaf root (height %d)", h)
	}
	if err := tr.BulkLoad(pairFeeder(500), 0.85); err != nil {
		t.Fatalf("bulk load on emptied tree: %v", err)
	}
	mustVerify(t, tr)
	if cnt, _ := tr.Len(); cnt != 500 {
		t.Fatalf("Len = %d", cnt)
	}
}

// TestBulkLoadOverReusedPageIDs: a load into a tree emptied by deletes
// writes its pages over page IDs the store recycles, while the pool may
// still hold a frame for such an ID — here one a latch-free descent fetched
// in the instant the allocator re-issued the ID with its old image
// (reissueStore). The load must discard that frame before writing the page,
// leaf or index, or the stale frame shadows the new page for every later
// read. The tree is grown and emptied without workers, then reopened for
// the load, once with the default pool, large enough to keep every stale
// frame, and once with 16 frames. Some re-issued ID must become an index
// page, so the index levels' discard is tested too.
func TestBulkLoadOverReusedPageIDs(t *testing.T) {
	for _, m := range bulkModes {
		t.Run(m.name, func(t *testing.T) {
			for _, cache := range []int{0, 16} {
				t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
					loadOverReusedPageIDs(t, m.workers, cache)
				})
			}
		})
	}
}

func loadOverReusedPageIDs(t *testing.T, workers, cache int) {
	rs := &reissueStore{Store: storage.NewMemStore(512), images: map[page.PageID][]byte{}}
	dev := wal.NewMemDevice()
	opts := Options{PageSize: 512, CacheSize: cache, Store: rs, LogDevice: dev, Workers: WorkersNone}
	tr := newTestTree(t, opts)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if err := tr.pool.FlushAll(); err != nil { // every leaf now has a store image
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 30 && tr.Height() > 0; round++ {
		for i := 0; i < n; i += 37 {
			tr.Get(key(i))
		}
		tr.DrainTodo()
	}
	if h := tr.Height(); h != 0 {
		t.Fatalf("tree did not shrink back to a leaf root (height %d)", h)
	}
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tr.Abandon()
	opts.Workers = workers
	tr = newTestTree(t, opts)
	highest := tr.StoreStats().HighestPage

	stale := map[page.PageID]bool{}
	rs.afterAlloc = func(id page.PageID) {
		if nd, err := tr.fetch(id); err == nil { // the descent's fetch ...
			tr.unpin(nd) // ... and its back-off
			stale[id] = true
		}
	}
	newVal := func(i int) []byte { return []byte(fmt.Sprintf("new-%06d", i)) }
	i := 0
	err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		i++
		return key(i - 1), newVal(i - 1), true
	}, 0.85)
	rs.afterAlloc = nil
	if err != nil {
		t.Fatalf("bulk load over reused page IDs: %v", err)
	}
	if len(stale) == 0 {
		t.Fatal("no re-issued page ID was fetched before the load wrote it; nothing was tested")
	}
	staleIndex := 0
	for id := range stale { // what the store holds, whatever the pool does
		img, err := rs.Store.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := page.Unmarshal(img); err == nil && c.Kind == page.Index {
			staleIndex++
		}
	}
	if staleIndex == 0 {
		t.Fatal("no re-issued page ID fetched before the load became an index page; the index levels were not tested")
	}
	if got := tr.StoreStats().HighestPage; got != highest {
		t.Fatalf("the load grew the store to page %d from %d; it must reuse freed IDs", got, highest)
	}
	if _, err := tr.VerifyDeep(); err != nil {
		t.Fatalf("deep verify: %v", err)
	}
	for i := 0; i < n; i++ {
		if got, err := tr.Get(key(i)); err != nil || !bytes.Equal(got, newVal(i)) {
			t.Fatalf("get %d after the load: %q, %v", i, got, err)
		}
	}
}

// TestBulkLoadRejectsShrunkNonEmptyTree is the counterpart: a tree shrunk
// back to a level-0 root that still holds records is refused.
func TestBulkLoadRejectsShrunkNonEmptyTree(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	for i := 0; i < n-3; i++ {
		tr.Delete(key(i))
	}
	for round := 0; round < 30 && tr.Height() > 0; round++ {
		for i := 0; i < n; i += 37 {
			tr.Get(key(i))
		}
		tr.DrainTodo()
	}
	if h := tr.Height(); h != 0 {
		t.Skipf("tree kept height %d with 3 records", h)
	}
	if err := tr.BulkLoad(pairFeeder(10), 0.85); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("bulk load on shrunk non-empty tree: %v", err)
	}
}

// TestBulkLoadParallelSurvivesCrash crashes immediately after a
// chunk-logged load — nothing flushed after it — and recovers over the same
// store, which the load forced before its commit record: no chunk is
// skipped and the open starts at the load's own checkpoint.
func TestBulkLoadParallelSurvivesCrash(t *testing.T) {
	for _, m := range bulkModes {
		t.Run(m.name, func(t *testing.T) {
			dev, store := wal.NewMemDevice(), storage.NewMemStore(512)
			tr, err := New(Options{PageSize: 512, LogDevice: dev, BulkChunkPages: 4,
				Store: store, Workers: m.workers})
			if err != nil {
				t.Fatal(err)
			}
			const n = 5000
			if err := tr.BulkLoad(pairFeeder(n), 0.85); err != nil {
				t.Fatal(err)
			}
			dev.Crash()
			tr.Abandon()

			tr2, err := New(Options{PageSize: 512, LogDevice: dev,
				Store: store, Workers: WorkersNone})
			if err != nil {
				t.Fatal(err)
			}
			defer tr2.Close()
			rs := tr2.RecoveryStats()
			if !rs.Recovered {
				t.Fatal("no recovery ran")
			}
			if rs.BulkChunksSkipped != 0 || rs.FullLogRead != "" || rs.RecordsScanned != 1 {
				t.Fatalf("%+v; want a restart at the load's checkpoint and no chunk skipped", rs)
			}
			if _, err := tr2.VerifyDeep(); err != nil {
				t.Fatalf("deep verify after recovery: %v", err)
			}
			if cnt, _ := tr2.Len(); cnt != n {
				t.Fatalf("recovered Len = %d, want %d", cnt, n)
			}
			for i := 0; i < n; i += 173 {
				got, err := tr2.Get(key(i))
				if err != nil || !bytes.Equal(got, valb(i)) {
					t.Fatalf("recovered get %d: %q, %v", i, got, err)
				}
			}
		})
	}
}

// badFeeder yields good ascending entries, then one out-of-order key.
func badFeeder(good int) func() ([]byte, []byte, bool) {
	i := 0
	return func() ([]byte, []byte, bool) {
		if i < good {
			k, v := key(i), valb(i)
			i++
			return k, v, true
		}
		if i == good {
			i++
			return key(0), valb(0), true // out of order
		}
		return nil, nil, false
	}
}

// TestBulkLoadAbortedChunksSkippedOnRecovery fails a chunk-logged load
// after several chunk records are durable, then crashes. Recovery must skip
// every chunk of the committed-less session — the abandoned pages stay
// unallocated and invisible — and replay only the work after the failure.
func TestBulkLoadAbortedChunksSkippedOnRecovery(t *testing.T) {
	for _, m := range bulkModes {
		t.Run(m.name, func(t *testing.T) {
			dev := wal.NewMemDevice()
			tr, err := New(Options{PageSize: 512, LogDevice: dev, BulkChunkPages: 2,
				Store: storage.NewMemStore(512), Workers: m.workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(badFeeder(400), 0.85); err == nil {
				t.Fatal("unsorted bulk load accepted")
			}
			// The failed load must leave a usable tree; this put is the only
			// durable record.
			if err := tr.Put(key(7), valb(7)); err != nil {
				t.Fatal(err)
			}
			if err := tr.FlushLog(); err != nil {
				t.Fatal(err)
			}
			dev.Crash()
			tr.Abandon()

			tr2, err := New(Options{PageSize: 512, LogDevice: dev,
				Store: storage.NewMemStore(512), Workers: WorkersNone})
			if err != nil {
				t.Fatal(err)
			}
			defer tr2.Close()
			rs := tr2.RecoveryStats()
			if rs.BulkChunksSkipped == 0 {
				t.Fatal("no chunk records skipped — the aborted session left no durable chunks?")
			}
			if _, err := tr2.VerifyDeep(); err != nil {
				t.Fatalf("deep verify after recovery: %v", err)
			}
			if cnt, _ := tr2.Len(); cnt != 1 {
				t.Fatalf("recovered Len = %d, want 1", cnt)
			}
			if got, err := tr2.Get(key(7)); err != nil || !bytes.Equal(got, valb(7)) {
				t.Fatalf("recovered get: %q, %v", got, err)
			}
		})
	}
}

// TestBulkLoadTinyCachePins: a load through a 16-frame pool, far smaller
// than the tree, must stream without exhausting pins — also at GOMAXPROCS
// 64, with 64 builders. No page of the load takes a frame, so the pool
// bounds no part of the load; only the root is fetched, at the commit.
func TestBulkLoadTinyCachePins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64))
	for _, m := range bulkModes {
		tr := newTestTree(t, Options{PageSize: 512, CacheSize: 16, Workers: m.workers})
		const n = 20000
		if err := tr.BulkLoad(pairFeeder(n), 0.85); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if _, err := tr.VerifyDeep(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if cnt, _ := tr.Len(); cnt != n {
			t.Fatalf("%s: Len = %d", m.name, cnt)
		}
	}
}
