package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// testObj is a minimal Object: a page-sized blob with an LSN header. It is
// Framed, so tests can reach the frame caching it.
type testObj struct {
	lsn   wal.LSN
	data  byte // fill byte, for identity checks
	mu    sync.Mutex
	frame *Frame
}

func (o *testObj) SetFrame(f *Frame) { o.frame = f }

func (o *testObj) PageLSN() wal.LSN {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lsn
}

func (o *testObj) Marshal(pageSize int) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	buf := make([]byte, pageSize)
	buf[0] = byte(o.lsn)
	buf[1] = o.data
	return buf, nil
}

type testCodec struct {
	loads atomic.Uint64
}

func (c *testCodec) Unmarshal(data []byte) (Object, error) {
	c.loads.Add(1)
	return &testObj{lsn: wal.LSN(data[0]), data: data[1]}, nil
}

func newTestPool(t *testing.T, capacity int) (*Pool, storage.Store, *testCodec) {
	t.Helper()
	store := storage.NewMemStore(128)
	codec := &testCodec{}
	return NewPool(store, nil, codec, capacity), store, codec
}

// allocObj allocates a store page holding a testObj with the given fill.
func allocObj(t *testing.T, p *Pool, store storage.Store, fill byte) page.PageID {
	t.Helper()
	id, err := store.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(id, &testObj{data: fill}); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, true)
	return id
}

func TestFetchHitReturnsSameObject(t *testing.T) {
	p, store, codec := newTestPool(t, 4)
	id := allocObj(t, p, store, 7)
	a, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two fetches of a resident page returned different objects")
	}
	if codec.loads.Load() != 0 {
		t.Fatal("resident page was reloaded from store")
	}
	p.Unpin(id, false)
	p.Unpin(id, false)
	s := p.Snapshot()
	if s.Hits != 2 {
		t.Fatalf("hits = %d, want 2", s.Hits)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p, store, codec := newTestPool(t, 2)
	a := allocObj(t, p, store, 1)
	b := allocObj(t, p, store, 2)
	// Fetching a third page must evict one of the first two and write it
	// back (both are dirty).
	c := allocObj(t, p, store, 3)
	_ = c
	s := p.Snapshot()
	if s.Evictions == 0 || s.WriteBacks == 0 {
		t.Fatalf("stats = %+v, want evictions and writebacks", s)
	}
	// Whichever of a/b was evicted must reload with its data intact.
	for _, id := range []page.PageID{a, b} {
		obj, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		got := obj.(*testObj).data
		want := byte(1)
		if id == b {
			want = 2
		}
		if got != want {
			t.Fatalf("page %d data = %d, want %d", id, got, want)
		}
		p.Unpin(id, false)
	}
	if codec.loads.Load() == 0 {
		t.Fatal("no reload happened despite eviction")
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	p, store, _ := newTestPool(t, 2)
	p.fullWait = 20 * time.Millisecond
	a := allocObj(t, p, store, 1)
	b := allocObj(t, p, store, 2)
	// Pin both.
	if _, err := p.Fetch(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(b); err != nil {
		t.Fatal(err)
	}
	// A third page cannot enter: everything is pinned, and stays pinned for
	// the pool's whole wait budget.
	id, _ := store.Allocate()
	t0 := time.Now()
	if err := p.Insert(id, &testObj{}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Insert with all pinned: %v, want ErrPoolFull", err)
	}
	if waited := time.Since(t0); waited < p.fullWait {
		t.Fatalf("ErrPoolFull after %v, before the %v wait budget", waited, p.fullWait)
	}
	if _, err := p.Fetch(id); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Fetch with all pinned: %v, want ErrPoolFull", err)
	}
	p.Unpin(a, false)
	if err := p.Insert(id, &testObj{}); err != nil {
		t.Fatalf("Insert after unpin: %v", err)
	}
	p.Unpin(id, false)
	p.Unpin(b, false)
}

func TestUnpinUnderflowPanics(t *testing.T) {
	p, store, _ := newTestPool(t, 2)
	id := allocObj(t, p, store, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin did not panic")
		}
	}()
	p.Unpin(id, false)
}

func TestMarkDirtyRequiresPin(t *testing.T) {
	p, store, _ := newTestPool(t, 2)
	id := allocObj(t, p, store, 1)
	obj, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	f := obj.(*testObj).frame
	f.MarkDirty()
	f.Unpin(false)
	defer func() {
		if recover() == nil {
			t.Fatal("MarkDirty of unpinned page did not panic")
		}
	}()
	f.MarkDirty()
}

func TestFlushAllPersistsDirtyPages(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	id := allocObj(t, p, store, 42)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	raw, err := store.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if raw[1] != 42 {
		t.Fatalf("store image byte = %d, want 42", raw[1])
	}
}

func TestWALRuleOnWriteBack(t *testing.T) {
	store := storage.NewMemStore(128)
	dev := wal.NewMemDevice()
	log, err := wal.NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(store, log, &testCodec{}, 4)

	// Log a record, stamp the page with its LSN, do not flush.
	lsn, err := log.Append(&wal.Record{Type: wal.TBegin, Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := store.Allocate()
	if err := p.Insert(id, &testObj{lsn: lsn, data: 1}); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, true)
	if log.FlushedLSN() != 0 {
		t.Fatal("log flushed prematurely")
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if log.FlushedLSN() < lsn {
		t.Fatalf("WAL rule violated: page written with FlushedLSN=%d < pageLSN=%d",
			log.FlushedLSN(), lsn)
	}
}

func TestFetchMissingPageFails(t *testing.T) {
	p, _, _ := newTestPool(t, 4)
	if _, err := p.Fetch(999); err == nil {
		t.Fatal("Fetch of unallocated page succeeded")
	}
	// The failed frame must not poison later fetches of other pages.
	if p.find(999) != nil {
		t.Fatal("failed frame left resident")
	}
}

func TestConcurrentFetchSingleLoad(t *testing.T) {
	p, store, codec := newTestPool(t, 8)
	id := allocObj(t, p, store, 5)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Force out of cache.
	p2 := NewPool(store, nil, codec, 8)
	codec.loads.Store(0)

	var wg sync.WaitGroup
	objs := make([]Object, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obj, err := p2.Fetch(id)
			if err != nil {
				t.Error(err)
				return
			}
			objs[i] = obj
		}(i)
	}
	wg.Wait()
	if codec.loads.Load() != 1 {
		t.Fatalf("loads = %d, want 1 (deduplicated)", codec.loads.Load())
	}
	for i := 1; i < 16; i++ {
		if objs[i] != objs[0] {
			t.Fatal("concurrent fetches returned different objects")
		}
	}
	for i := 0; i < 16; i++ {
		p2.Unpin(id, false)
	}
}

func TestConcurrentChurn(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	var ids []page.PageID
	for i := 0; i < 16; i++ {
		ids = append(ids, allocObj(t, p, store, byte(i)))
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(seed*31+i*7)%len(ids)]
				obj, err := p.Fetch(id)
				if err != nil {
					t.Errorf("fetch %d: %v", id, err)
					return
				}
				// ids are handed out 1..16 in allocation order, and page i
				// was filled with byte(i).
				if got, want := obj.(*testObj).data, byte(id-ids[0]); got != want {
					t.Errorf("page %d data = %d, want %d", id, got, want)
				}
				p.Unpin(id, i%3 == 0)
			}
		}(g)
	}
	wg.Wait()
	// Every page must still carry its original fill byte after churn.
	for i, id := range ids {
		obj, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(*testObj).data; got != byte(i) {
			t.Fatalf("page %d data = %d, want %d", id, got, i)
		}
		p.Unpin(id, false)
	}
}

func TestSnapshotCounts(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	id := allocObj(t, p, store, 1)
	if _, err := p.Fetch(id); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.Resident != 1 || s.Pinned != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	p.Unpin(id, false)
	if s := p.Snapshot(); s.Pinned != 0 {
		t.Fatalf("pinned after unpin = %d", s.Pinned)
	}
}

// BenchmarkFetchHit is the hit path — Fetch plus Unpin through the frame
// handle, as the tree does it — on one goroutine, and on all of them either
// hammering one page (the root's situation: one frame's cache line is
// shared) or each cycling over pages of its own (nothing is shared, so this
// one should scale with -cpu).
func BenchmarkFetchHit(b *testing.B) {
	const perG = 64
	setup := func(b *testing.B, pages int) (*Pool, []page.PageID) {
		store := storage.NewMemStore(128)
		p := NewPool(store, nil, &testCodec{}, pages)
		ids := make([]page.PageID, pages)
		for i := range ids {
			ids[i], _ = store.Allocate()
			if err := p.Insert(ids[i], &testObj{data: 1}); err != nil {
				b.Fatal(err)
			}
			p.Unpin(ids[i], false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		return p, ids
	}
	hit := func(b *testing.B, p *Pool, id page.PageID) {
		obj, err := p.Fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		obj.(*testObj).frame.Unpin(false)
	}
	b.Run("serial", func(b *testing.B) {
		p, ids := setup(b, 1)
		for i := 0; i < b.N; i++ {
			hit(b, p, ids[0])
		}
	})
	b.Run("same-page", func(b *testing.B) {
		p, ids := setup(b, 1)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				hit(b, p, ids[0])
			}
		})
	})
	b.Run("spread", func(b *testing.B) {
		p, ids := setup(b, perG*64) // room for 64 goroutines
		var next atomic.Int32
		b.RunParallel(func(pb *testing.PB) {
			mine := ids[(int(next.Add(1))-1)%64*perG:][:perG]
			for i := 0; pb.Next(); i++ {
				hit(b, p, mine[i%perG])
			}
		})
	})
}

func ExamplePool() {
	store := storage.NewMemStore(128)
	pool := NewPool(store, nil, &testCodec{}, 8)
	id, _ := store.Allocate()
	_ = pool.Insert(id, &testObj{data: 3})
	pool.Unpin(id, true)
	obj, _ := pool.Fetch(id)
	fmt.Println(obj.(*testObj).data)
	pool.Unpin(id, false)
	// Output: 3
}

// slowObj is a testObj whose Marshal blocks until released, holding the
// frame in stateEvicting (no lock held) for as long as the test needs.
type slowObj struct {
	testObj
	started chan struct{} // closed when Marshal begins
	release chan struct{} // Marshal returns after this closes
}

func (o *slowObj) Marshal(pageSize int) ([]byte, error) {
	close(o.started)
	<-o.release
	return o.testObj.Marshal(pageSize)
}

// TestConcurrentMissDuringEviction reproduces the duplicate-frame race: a
// miss makes room by evicting, which holds no lock during write-back; a
// second miss for the same page in that window must not install a second
// frame when it resumes. With the bug, the two loaders get distinct frames
// for one page and their unpins cross, underflowing the pin count (panic
// "Unpin of unpinned page").
func TestConcurrentMissDuringEviction(t *testing.T) {
	p, store, _ := newTestPool(t, 2)
	// Two dirty slow-marshal victims fill the pool.
	mkSlow := func(fill byte) (page.PageID, *slowObj) {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		o := &slowObj{
			testObj: testObj{data: fill},
			started: make(chan struct{}),
			release: make(chan struct{}),
		}
		if err := p.Insert(id, o); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, true) // dirty: eviction must write back (slowly)
		return id, o
	}
	_, v1 := mkSlow(1)
	_, v2 := mkSlow(2)
	// The contended page: on the store but not resident.
	x, err := store.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(x, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}

	// Fetch only; pins are dropped at the end, so the first loader's pin is
	// still outstanding when the second resumes — with the bug the second
	// unpin below underflows.
	fetch := func(done chan error) {
		_, err := p.Fetch(x)
		done <- err
	}
	// Loader A misses x and starts evicting one victim; once its write-back
	// has the mutex dropped, loader B misses x too and evicts the other.
	// Releasing A first lets it finish its load while B is still evicting;
	// B must then adopt A's frame instead of installing its own.
	doneA := make(chan error, 1)
	doneB := make(chan error, 1)
	go fetch(doneA)
	<-v1.started
	go fetch(doneB)
	<-v2.started
	close(v1.release)
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	close(v2.release)
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}
	p.Unpin(x, false)
	p.Unpin(x, false)
	s := p.Snapshot()
	if s.Pinned != 0 {
		t.Fatalf("pins leaked: %d pages still pinned", s.Pinned)
	}
}
