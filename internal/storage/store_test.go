package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"blinktree/internal/page"
)

// stores returns a fresh instance of each Store implementation for
// table-driven tests.
func stores(t *testing.T, pageSize int) map[string]Store {
	t.Helper()
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.db"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMemStore(pageSize),
		"file": fs,
	}
}

// allStores adds the simulated disk (whose Close is a no-op by design) and
// the fault-injecting wrapper, for the tests of the page I/O contract.
func allStores(t *testing.T, pageSize int) map[string]Store {
	m := stores(t, pageSize)
	m["sim"] = NewSimDisk(pageSize, SimConfig{}).Store()
	m["faulty"] = NewFaultyStore(NewMemStore(pageSize))
	return m
}

func TestAllocateReadWrite(t *testing.T) {
	for name, s := range stores(t, 256) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id == page.InvalidPage {
				t.Fatal("allocated the nil page")
			}
			buf := bytes.Repeat([]byte{0xAB}, 256)
			if err := s.Write(id, buf); err != nil {
				t.Fatal(err)
			}
			got, err := s.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatal("read returned different bytes")
			}
		})
	}
}

// TestReadHandsOverOwnership pins the contract page.Unmarshal relies on:
// Read returns a buffer the caller owns. The store neither retains it (a
// caller's write does not reach the store or another reader) nor reuses it
// (a later Write or Read leaves it alone), and Write keeps no reference to
// the buffer it was given.
func TestReadHandsOverOwnership(t *testing.T) {
	for name, s := range allStores(t, 256) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, _ := s.Allocate()
			other, _ := s.Allocate()
			old, in := bytes.Repeat([]byte{0xAB}, 256), bytes.Repeat([]byte{0xAB}, 256)
			if err := s.Write(id, in); err != nil {
				t.Fatal(err)
			}
			for i := range in {
				in[i] = 0 // the store must have copied it out
			}
			first, err := s.Read(id)
			if err != nil || !bytes.Equal(first, old) {
				t.Fatalf("read after the written buffer was reused: %v", err)
			}
			// Traffic that would show a recycled or retained buffer.
			if err := s.Write(id, bytes.Repeat([]byte{0xCD}, 256)); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(other, bytes.Repeat([]byte{0xEF}, 256)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				s.Read(id)
				s.Read(other)
			}
			if !bytes.Equal(first, old) {
				t.Fatal("a buffer returned by Read changed under later store traffic")
			}
			for i := range first {
				first[i] = 0x11
			}
			if again, _ := s.Read(id); !bytes.Equal(again, bytes.Repeat([]byte{0xCD}, 256)) {
				t.Fatal("writing to a buffer returned by Read reached the store")
			}
		})
	}
}

// TestConcurrentPageIO reads and writes distinct pages from several
// goroutines while another allocates and deallocates: page I/O holds the
// FileStore lock shared, the allocator holds it exclusively, and the
// operation counters must not lose updates.
// TestReadIntoContract runs the PageReader contract on every store: ReadInto
// fills the caller's buffer with the bytes Read returns, fails with the
// sentinel Read fails with (not allocated, closed, power cut, injected
// fault), and refuses a buffer that is not one page long. The ReadInto
// helper falls back to Read for a store that hides the capability.
func TestReadIntoContract(t *testing.T) {
	for name, s := range allStores(t, 256) {
		t.Run(name, func(t *testing.T) {
			pr, ok := s.(PageReader)
			if !ok {
				t.Fatalf("%T does not implement PageReader", s)
			}
			// same asserts that Read(id) and ReadInto(id) both fail with
			// want (succeed, when want is nil), and that ReadInto fills the
			// buffer with Read's bytes.
			same := func(what string, id page.PageID, want error) {
				t.Helper()
				img, rerr := s.Read(id)
				buf := bytes.Repeat([]byte{0x5A}, 256)
				ierr := pr.ReadInto(id, buf)
				if !errors.Is(rerr, want) || !errors.Is(ierr, want) {
					t.Fatalf("%s: Read fails with %v, ReadInto with %v, want %v", what, rerr, ierr, want)
				}
				if want == nil && !bytes.Equal(buf, img) {
					t.Fatalf("%s: ReadInto read %x..., Read %x...", what, buf[:8], img[:8])
				}
			}
			id, _ := s.Allocate()
			freed, _ := s.Allocate()
			if err := s.Write(id, bytes.Repeat([]byte{0xC3}, 256)); err != nil {
				t.Fatal(err)
			}
			if err := s.Deallocate(freed); err != nil {
				t.Fatal(err)
			}
			same("written page", id, nil)
			same("freed page", freed, ErrNotAllocated)
			same("never allocated", 999, ErrNotAllocated)
			for _, n := range []int{0, 255, 257} {
				if err := pr.ReadInto(id, make([]byte, n)); !errors.Is(err, ErrBadSize) {
					t.Fatalf("ReadInto of %d bytes: %v, want ErrBadSize", n, err)
				}
			}

			// The helper reads into buf through the capability, and into a
			// fresh buffer through a wrapper that hides it.
			buf := make([]byte, 256)
			if got, err := ReadInto(s, id, buf); err != nil || &got[0] != &buf[0] {
				t.Fatalf("ReadInto helper over %T did not read into the buffer given (%v)", s, err)
			}
			got, err := ReadInto(struct{ Store }{s}, id, buf)
			if err != nil || &got[0] == &buf[0] || !bytes.Equal(got, buf) {
				t.Fatalf("ReadInto helper over a wrapper did not fall back to Read (%v)", err)
			}

			if inj, ok := s.(interface{ SetFailReads(bool) }); ok {
				inj.SetFailReads(true)
				same("injected read fault", id, ErrInjected)
				inj.SetFailReads(false)
			}
			if sim, ok := s.(*SimStore); ok {
				sim.d.CrashNow()
				same("after a power cut", id, ErrPowerCut)
				return // a SimStore's Close is a no-op
			}
			s.Close()
			same("after Close", id, ErrClosed)
		})
	}
}

func TestConcurrentPageIO(t *testing.T) {
	for name, s := range allStores(t, 256) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			const workers, rounds = 4, 200
			ids := make([]page.PageID, workers)
			for i := range ids {
				ids[i], _ = s.Allocate()
			}
			base := s.Stats()
			var wg sync.WaitGroup
			for w, id := range ids {
				wg.Add(1)
				go func(w int, id page.PageID) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						want := bytes.Repeat([]byte{byte(w), byte(i)}, 128)
						if err := s.Write(id, want); err != nil {
							t.Error(err)
							return
						}
						if got, err := s.Read(id); err != nil || !bytes.Equal(got, want) {
							t.Errorf("worker %d round %d read back something else (%v)", w, i, err)
							return
						}
					}
				}(w, id)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					id, err := s.Allocate()
					if err == nil {
						err = s.Deallocate(id)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			st := s.Stats()
			if st.Reads-base.Reads != workers*rounds || st.Writes-base.Writes != workers*rounds {
				t.Fatalf("counted %d reads and %d writes, want %d each",
					st.Reads-base.Reads, st.Writes-base.Writes, workers*rounds)
			}
		})
	}
}

func TestFreshPageReadsZero(t *testing.T) {
	for name, s := range stores(t, 256) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, 256)) {
				t.Fatal("fresh page not zeroed")
			}
		})
	}
}

// TestFileStoreAllocatedPagesReadZero: a FileStore grows its frontier by
// extending the file (one Truncate, no page writes) and an allocated page
// reads as zeros until it is written — off the frontier, from the free
// list, and in a file a crash left longer than its persisted frontier,
// whose stale pages must not read back as what they held.
func TestFileStoreAllocatedPagesReadZero(t *testing.T) {
	const ps = 256
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := OpenFileStore(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, ps)
	mustZero := func(s *FileStore, ids ...page.PageID) {
		t.Helper()
		for _, id := range ids {
			if got, err := s.Read(id); err != nil || !bytes.Equal(got, zero) {
				t.Fatalf("allocated page %d reads %x, %v; want zeros", id, got, err)
			}
		}
	}
	a, _ := s.Allocate()
	batch, err := s.AllocateBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureAllocated(9); err != nil { // 5–8 go to the free list
		t.Fatal(err)
	}
	mustZero(s, append(batch, a, 9)...)
	if st := s.Stats(); st.Writes != 0 {
		t.Fatalf("allocation wrote %d pages, want none", st.Writes)
	}
	if info, _ := s.f.Stat(); info.Size() != 10*ps {
		t.Fatalf("file is %d bytes after allocating up to page 9, want %d", info.Size(), 10*ps)
	}

	// Free-list reuse zeroes what the page held.
	junk := bytes.Repeat([]byte{0xA5}, ps)
	if err := s.Write(a, junk); err != nil {
		t.Fatal(err)
	}
	s.Deallocate(a)
	if b, _ := s.Allocate(); b != a {
		t.Fatalf("reused %d, want %d", b, a)
	}
	mustZero(s, a)

	// A crash image: the header persisted at frontier 10, then page 12
	// allocated and written, and the process gone before the next Sync.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.EnsureAllocated(12)
	s.Write(12, junk)
	s2, err := OpenFileStore(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ids, err := s2.AllocateBatch(6) // 8, 7, 6, 5 off the free list, then 10, 11
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s2.Allocate()
	if c != 12 {
		t.Fatalf("allocated %d, want the stale page 12", c)
	}
	mustZero(s2, append(ids, c)...)
	s.f.Close()
}

func TestUseAfterFree(t *testing.T) {
	for name, s := range stores(t, 256) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, _ := s.Allocate()
			if err := s.Deallocate(id); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read(id); !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("read after free: %v, want ErrNotAllocated", err)
			}
			if err := s.Write(id, make([]byte, 256)); !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("write after free: %v, want ErrNotAllocated", err)
			}
			if err := s.Deallocate(id); !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("double free: %v, want ErrNotAllocated", err)
			}
			if s.Allocated(id) {
				t.Fatal("Allocated true after free")
			}
		})
	}
}

func TestIDRecycling(t *testing.T) {
	for name, s := range stores(t, 256) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			a, _ := s.Allocate()
			b, _ := s.Allocate()
			if err := s.Deallocate(a); err != nil {
				t.Fatal(err)
			}
			c, _ := s.Allocate()
			if c != a {
				t.Fatalf("expected recycled id %d, got %d", a, c)
			}
			// The recycled page must read as zero, not the old image.
			got, err := s.Read(c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, 256)) {
				t.Fatal("recycled page not zeroed")
			}
			_ = b
		})
	}
}

func TestBadWriteSize(t *testing.T) {
	for name, s := range stores(t, 256) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, _ := s.Allocate()
			if err := s.Write(id, make([]byte, 255)); !errors.Is(err, ErrBadSize) {
				t.Fatalf("short write: %v, want ErrBadSize", err)
			}
		})
	}
}

func TestClosedStore(t *testing.T) {
	for name, s := range stores(t, 256) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.Allocate()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Allocate(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Allocate after close: %v", err)
			}
			if _, err := s.Read(id); !errors.Is(err, ErrClosed) {
				t.Fatalf("Read after close: %v", err)
			}
		})
	}
}

func TestStatsCounts(t *testing.T) {
	for name, s := range stores(t, 256) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			a, _ := s.Allocate()
			b, _ := s.Allocate()
			s.Write(a, make([]byte, 256))
			s.Read(a)
			s.Read(b)
			s.Deallocate(b)
			st := s.Stats()
			if st.Allocs != 2 || st.Deallocs != 1 || st.Writes != 1 || st.Reads != 2 {
				t.Fatalf("stats = %+v", st)
			}
			if st.LivePages != 1 {
				t.Fatalf("LivePages = %d, want 1", st.LivePages)
			}
			if !strings.Contains(st.String(), "allocs=2") {
				t.Fatalf("Stats.String() = %q", st.String())
			}
		})
	}
}

func TestConcurrentAllocations(t *testing.T) {
	for name, s := range stores(t, 256) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			var mu sync.Mutex
			seen := make(map[page.PageID]bool)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						id, err := s.Allocate()
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						if seen[id] {
							t.Errorf("duplicate allocation of %d", id)
						}
						seen[id] = true
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if len(seen) != 400 {
				t.Fatalf("allocated %d unique pages, want 400", len(seen))
			}
		})
	}
}

func TestFileStorePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	s, err := OpenFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Allocate()
	b, _ := s.Allocate()
	c, _ := s.Allocate()
	payload := bytes.Repeat([]byte{0x5C}, 256)
	if err := s.Write(b, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Deallocate(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Allocated(a) || !s2.Allocated(b) {
		t.Fatal("allocated pages lost across reopen")
	}
	if s2.Allocated(c) {
		t.Fatal("deallocated page resurrected across reopen")
	}
	got, err := s2.Read(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("page contents lost across reopen")
	}
	// The freed page should be recycled before the frontier advances.
	d, _ := s2.Allocate()
	if d != c {
		t.Fatalf("recycled id = %d, want %d", d, c)
	}
}

func TestFileStoreRejectsWrongPageSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	s, err := OpenFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenFileStore(path, 512); err == nil {
		t.Fatal("reopen with different page size succeeded")
	}
}

func TestFileStoreRejectsTinyPageSize(t *testing.T) {
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "p.db"), 16); err == nil {
		t.Fatal("page size below minimum accepted")
	}
}

// TestQuickAllocFreeCycle property-tests that any interleaving of
// allocations and frees maintains the invariant: live set == allocated minus
// freed, and reads succeed exactly on the live set.
func TestQuickAllocFreeCycle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewMemStore(128)
		defer s.Close()
		live := make(map[page.PageID]bool)
		for i := 0; i < 200; i++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				id, err := s.Allocate()
				if err != nil || live[id] {
					return false
				}
				live[id] = true
			} else {
				var victim page.PageID
				for id := range live {
					victim = id
					break
				}
				if err := s.Deallocate(victim); err != nil {
					return false
				}
				delete(live, victim)
			}
		}
		for id := range live {
			if !s.Allocated(id) {
				return false
			}
			if _, err := s.Read(id); err != nil {
				return false
			}
		}
		return s.Stats().LivePages == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreWriteRun: WriteRun writes every page of a run, including one
// whose IDs are not consecutive (a batch that took recycled IDs), reads
// back byte for byte, and counts pages, not calls, in Stats.Writes. A run
// naming an unallocated page is refused whole: nothing of it is written.
// The other stores take the per-page fallback with the same results.
func TestFileStoreWriteRun(t *testing.T) {
	const ps = 256
	for name, s := range allStores(t, ps) {
		t.Run(name, func(t *testing.T) {
			if _, ok := s.(RunWriter); ok != (name == "file") {
				t.Fatalf("RunWriter implemented: %v", ok)
			}
			ids, err := AllocateBatch(s, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Deallocate(ids[1]); err != nil {
				t.Fatal(err)
			}
			run := []page.PageID{ids[0], ids[2], ids[3], ids[4]}
			image := func(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, ps) }
			buf := make([]byte, 0, len(run)*ps)
			for i := range run {
				buf = append(buf, image(i)...)
			}
			before := s.Stats().Writes
			bad := []page.PageID{ids[0], ids[1], ids[2], ids[3]} // ids[1] is free
			if err := WriteRun(s, bad, buf); !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("run over a free page: %v, want ErrNotAllocated", err)
			}
			if name == "file" {
				if w := s.Stats().Writes; w != before {
					t.Fatalf("refused run counted %d writes", w-before)
				}
				if got, _ := s.Read(ids[0]); !bytes.Equal(got, make([]byte, ps)) {
					t.Fatal("refused run wrote its first page")
				}
			}
			before = s.Stats().Writes
			if err := WriteRun(s, run, buf); err != nil {
				t.Fatal(err)
			}
			if w := s.Stats().Writes - before; w != uint64(len(run)) {
				t.Fatalf("Stats.Writes rose by %d for a %d-page run", w, len(run))
			}
			for i, id := range run {
				got, err := s.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, image(i)) {
					t.Fatalf("page %d reads back %x..., want %x...", id, got[:4], image(i)[:4])
				}
			}
			if err := WriteRun(s, run, buf[:ps]); !errors.Is(err, ErrBadSize) {
				t.Fatalf("short run buffer: %v, want ErrBadSize", err)
			}
		})
	}
}
