package buffer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinktree/internal/page"
	"blinktree/internal/storage"
)

// TestPoolAgainstModel runs fetch / mutate-under-own-lock / unpin-dirty from
// several goroutines over a working set four times the pool, with FlushAll
// and DiscardIfUnpinned running beside them, and checks the pool against a
// model of every page's counter (testObj's fill byte, counting modulo 256):
//
//   - one frame per id: two copies of a page would have two locks, and a
//     mutation through one would be missing from the other;
//   - no lost write-back: a reloaded page carries the model's value, and so
//     does every store image after the final flush;
//   - DiscardIfUnpinned excludes a reload until release returns: release
//     resets the page, and a reload that slipped in would carry the old value;
//   - every successful Fetch counts exactly one hit or one miss;
//   - Resident never exceeds capacity and every pin word ends at zero.
func TestPoolAgainstModel(t *testing.T) {
	const (
		capacity = 8
		pages    = 4 * capacity
		workers  = 6
		rounds   = 3000
		pageSize = 64
	)
	store := storage.NewMemStore(pageSize)
	p := NewPool(store, nil, &testCodec{}, capacity)
	zero := make([]byte, pageSize) // a page whose counter is 0
	ids := make([]page.PageID, pages)
	want := make([]atomic.Uint32, pages)
	for i := range ids {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := store.Write(id, zero); err != nil {
			t.Fatal(err)
		}
	}

	var fetches atomic.Uint64
	stop := make(chan struct{})
	var side sync.WaitGroup
	background := func(step func(i int)) {
		side.Add(1)
		go func() {
			defer side.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					step(i)
					runtime.Gosched() // two spinners must not starve the workers
				}
			}
		}()
	}
	background(func(int) {
		if err := p.FlushAll(); err != nil {
			t.Errorf("FlushAll: %v", err)
		}
		if s := p.Snapshot(); s.Resident > capacity {
			t.Errorf("resident = %d > capacity %d", s.Resident, capacity)
		}
	})
	background(func(i int) {
		k := i * 13 % pages
		// release runs under the page's bucket lock with the frame gone: the
		// page is reset there, as if deallocated and handed out again.
		_, err := p.DiscardIfUnpinned(ids[k], func() error {
			want[k].Store(0)
			return store.Write(ids[k], zero)
		})
		if err != nil {
			t.Errorf("DiscardIfUnpinned: %v", err)
		}
	})

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g*7 + i*(2*g+1)) % pages
				obj, err := p.Fetch(ids[k])
				if err != nil {
					t.Errorf("fetch %d: %v", ids[k], err)
					return
				}
				fetches.Add(1)
				o := obj.(*testObj)
				o.mu.Lock()
				if w := byte(want[k].Load()); o.data != w {
					t.Errorf("page %d holds %d, model %d", ids[k], o.data, w)
				}
				dirty := i%2 == 0
				if dirty {
					o.data++
					want[k].Store(uint32(o.data))
				}
				o.mu.Unlock()
				o.frame.Unpin(dirty)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	side.Wait()

	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for k, id := range ids {
		raw, err := store.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, w := raw[1], byte(want[k].Load()); got != w {
			t.Errorf("store image of page %d = %d, model %d: lost write-back", id, got, w)
		}
	}
	s := p.Snapshot()
	if s.Hits+s.Misses != fetches.Load() {
		t.Errorf("hits %d + misses %d != %d fetches", s.Hits, s.Misses, fetches.Load())
	}
	if s.Pinned != 0 {
		t.Errorf("%d frames still pinned", s.Pinned)
	}
	seen := map[uint64]bool{}
	for i := range p.frames {
		f := &p.frames[i]
		if w := f.word.Load(); w>>pinShift != 0 {
			t.Errorf("frame %d: pin word %#x at rest", i, w)
		} else if w&stateMask == stateFree {
			continue
		}
		if id := f.id.Load(); seen[id] {
			t.Errorf("two frames cache page %d", id)
		} else {
			seen[id] = true
		}
	}
}

// TestPinRecheckAfterRecycle parks a reader between its page-table read and
// its pin CAS while the frame it found is evicted and reused for another
// page: the pin lands on the wrong page, the id re-check must notice, drop
// it and refuse, and a fresh Fetch must find the page.
func TestPinRecheckAfterRecycle(t *testing.T) {
	p, store, _ := newTestPool(t, 1) // one frame: any miss recycles it
	x := allocObj(t, p, store, 1)
	f := p.bucket(x).find(x) // the reader's table read; it stalls here
	if f == nil {
		t.Fatal("page x not resident")
	}
	y := allocObj(t, p, store, 2) // evicts x, reuses the frame for y
	if got := page.PageID(f.id.Load()); got != y {
		t.Fatalf("frame holds page %d, want it recycled for %d", got, y)
	}
	before := p.Snapshot()

	if f.pin(x) {
		t.Fatal("pin of a frame recycled for another page succeeded")
	}
	after := p.Snapshot()
	if after.Pinned != 0 || after.Hits != before.Hits {
		t.Fatalf("stray pin or hit after the re-check: %+v -> %+v", before, after)
	}

	obj, err := p.Fetch(x) // what Fetch does after a refused pin: look up again
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*testObj).data; got != 1 {
		t.Fatalf("page x data = %d, want 1", got)
	}
	p.Unpin(x, false)
}

// TestInsertReplacesStaleFrame is the pool half of the "Insert of resident
// page" defect: a latch-free descent fetched a page id the allocator had just
// re-issued, leaving a frame behind; the Insert of the new page must replace
// it, not fail, and must not write the stale copy back.
func TestInsertReplacesStaleFrame(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	id, _ := store.Allocate()
	if err := store.Write(id, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	stale, err := p.Fetch(id) // the descent's fetch ...
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, true) // ... backed off, frame left behind (dirty, at worst)

	fresh := &testObj{data: 9}
	if err := p.Insert(id, fresh); err != nil {
		t.Fatalf("Insert over a stale unpinned frame: %v", err)
	}
	p.Unpin(id, false)
	got, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != Object(fresh) || got == stale {
		t.Fatal("Fetch after Insert did not return the inserted object")
	}
	p.Unpin(id, false)
	if s := p.Snapshot(); s.Resident != 1 || s.WriteBacks != 0 {
		t.Fatalf("after replacement: %+v, want 1 resident and no write-back", s)
	}
}

// TestInsertWaitsOutStalePin: while the stale frame is pinned Insert waits;
// it goes through once the holder unpins, and gives up after the wait budget
// if the holder never does.
func TestInsertWaitsOutStalePin(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	id, _ := store.Allocate()
	if err := store.Write(id, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	stale, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}

	p.fullWait = 20 * time.Millisecond
	if err := p.Insert(id, &testObj{data: 8}); err == nil {
		t.Fatal("Insert over a frame that stayed pinned succeeded")
	}
	if obj, err := p.Fetch(id); err != nil || obj != stale {
		t.Fatalf("pinned frame disturbed by the failed Insert: %v %v", obj, err)
	}
	p.Unpin(id, false)

	p.fullWait = time.Minute
	fresh := &testObj{data: 9}
	done := make(chan error, 1)
	go func() { done <- p.Insert(id, fresh) }()
	select {
	case err := <-done:
		t.Fatalf("Insert returned (%v) while the stale frame was pinned", err)
	case <-time.After(5 * time.Millisecond):
	}
	p.Unpin(id, false)
	if err := <-done; err != nil {
		t.Fatalf("Insert after the unpin: %v", err)
	}
	if got, err := p.Fetch(id); err != nil || got != Object(fresh) {
		t.Fatalf("Fetch after Insert: %v %v", got, err)
	}
}
