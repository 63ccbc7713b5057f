package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blinktree/internal/wal"
)

// TestConcurrentInserts hammers the tree with disjoint insert ranges and
// verifies nothing is lost and every invariant holds.
func TestConcurrentInserts(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, Workers: 2})
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := g*per + i
				if err := tr.Put(key(k), valb(k)); err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	mustVerify(t, tr)
	for k := 0; k < goroutines*per; k++ {
		got, err := tr.Get(key(k))
		if err != nil || !bytes.Equal(got, valb(k)) {
			t.Fatalf("get %d: %q, %v", k, got, err)
		}
	}
	if n, _ := tr.Len(); n != goroutines*per {
		t.Fatalf("Len = %d, want %d", n, goroutines*per)
	}
}

// TestConcurrentMixed runs inserts, deletes, gets and scans concurrently
// with background SMO workers, then checks invariants and a model of the
// final expected contents for keys owned by a single writer.
func TestConcurrentMixed(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4, Workers: 2})
	const writers, per = 6, 400
	var wg sync.WaitGroup
	// Each writer owns a disjoint key range and records its final state.
	finals := make([]map[int][]byte, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			final := make(map[int][]byte)
			for i := 0; i < per; i++ {
				k := g*per + rng.Intn(per)
				switch rng.Intn(3) {
				case 0, 1:
					v := []byte(fmt.Sprintf("v-%d-%d", g, i))
					if err := tr.Put(key(k), v); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					final[k] = v
				case 2:
					err := tr.Delete(key(k))
					if err != nil && !errors.Is(err, ErrKeyNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
					delete(final, k)
				}
			}
			finals[g] = final
		}(g)
	}
	// Two readers scan concurrently.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := ""
				err := tr.Scan(nil, nil, func(k, _ []byte) bool {
					if prev != "" && string(k) <= prev {
						t.Errorf("scan order violation: %q after %q", k, prev)
						return false
					}
					prev = string(k)
					return true
				})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	mustVerify(t, tr)

	want := 0
	for g, final := range finals {
		if final == nil {
			continue
		}
		for k, v := range final {
			got, err := tr.Get(key(k))
			if err != nil || !bytes.Equal(got, v) {
				t.Fatalf("writer %d key %d: got %q (%v), want %q", g, k, got, err, v)
			}
			want++
		}
	}
	if n, _ := tr.Len(); n != want {
		t.Fatalf("Len = %d, want %d", n, want)
	}
}

// TestConcurrentDeleteHeavy drives the node-delete machinery hard: fill,
// then concurrent deleters and readers, with workers consolidating behind
// them.
func TestConcurrentDeleteHeavy(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.45, Workers: 4})
	const n = 4000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				if i%5 == 0 {
					continue // survivors
				}
				if err := tr.Delete(key(i)); err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Errorf("delete %d: %v", i, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(n)
				_, err := tr.Get(key(k))
				if err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Errorf("get %d: %v", k, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	mustVerify(t, tr)
	s := tr.Stats()
	if s.LeafConsolidated == 0 {
		t.Fatalf("no consolidation under concurrent delete load: %+v", s)
	}
	for i := 0; i < n; i += 5 {
		got, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("survivor %d: %q, %v", i, got, err)
		}
	}
}

// TestConcurrentGrowShrinkCycles repeatedly fills and empties the tree so
// root grows and shrinks race with traffic.
func TestConcurrentGrowShrinkCycles(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.45, Workers: 4})
	const n = 1200
	for cycle := 0; cycle < 3; cycle++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += 4 {
					if err := tr.Put(key(i), valb(i)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += 4 {
					if err := tr.Delete(key(i)); err != nil && !errors.Is(err, ErrKeyNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		mustVerify(t, tr)
		if cnt, _ := tr.Len(); cnt != 0 {
			t.Fatalf("cycle %d: Len = %d, want 0", cycle, cnt)
		}
	}
}

// TestTinyCacheEviction forces heavy buffer pool churn so nodes round-trip
// through serialization mid-run (D_D persistence across eviction, §4.1.2).
func TestTinyCacheEviction(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, CacheSize: 8, MinFill: 0.4, Workers: 2})
	const n = 1500
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	mustVerify(t, tr)
	if tr.PoolStats().Evictions == 0 {
		t.Fatal("tiny cache produced no evictions")
	}
	for i := 1; i < n; i += 2 {
		got, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("get %d: %q, %v", i, got, err)
		}
	}
}

// TestHotspotContention makes all goroutines fight over few keys, driving
// latch promotion and update-latch serialization.
func TestHotspotContention(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, Workers: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(i % 8)
				switch (g + i) % 3 {
				case 0:
					tr.Put(k, []byte(fmt.Sprintf("g%d-i%d", g, i)))
				case 1:
					tr.Get(k)
				case 2:
					tr.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	mustVerify(t, tr)
}

// TestConcurrentDisjointKeysExactContents has goroutines upsert and delete
// disjoint keys that share leaves of a logged tree. The final state is
// interleaving-independent, so it must exactly equal the expected map, and
// every individual result (a delete of an absent key in particular) must
// come back correct while neighbours split the leaf under the writer.
func TestConcurrentDisjointKeysExactContents(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 1024, LogDevice: wal.NewMemDevice()})
	const goroutines, perG = 8, 300
	keyOf := func(g, i int) string { return fmt.Sprintf("g%02d-%06d", g, i%40) }
	valOf := func(g, i int) string { return fmt.Sprintf("val-%02d-%06d", g, i) }

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := []byte(keyOf(g, i))
				if err := tr.Put(k, []byte(valOf(g, i))); err != nil {
					t.Errorf("g%d put %d: %v", g, i, err)
					return
				}
				if i%4 == 3 {
					if err := tr.Delete(k); err != nil {
						t.Errorf("g%d del %d: %v", g, i, err)
						return
					}
				}
				if i%17 == 0 {
					absent := []byte(fmt.Sprintf("zz-absent-%02d-%06d", g, i))
					if err := tr.Delete(absent); !errors.Is(err, ErrKeyNotFound) {
						t.Errorf("g%d absent delete: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want := map[string]string{}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			want[keyOf(g, i)] = valOf(g, i)
			if i%4 == 3 {
				delete(want, keyOf(g, i))
			}
		}
	}
	got, err := tr.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if string(got[k]) != v {
			t.Fatalf("mismatch at %q: got %q, want %q", k, got[k], v)
		}
	}
	mustVerify(t, tr)
}

// TestHotKeyRacesSplitsAndConsolidations hammers one hot key from many
// goroutines while a filler stream splits its leaf and filler deletes empty
// the leaves beside it for the background workers to consolidate. No
// operation may be dropped or duplicated by an SMO: the final hot-key value
// must be one that was actually written, no filler may survive, and every
// invariant must hold.
func TestHotKeyRacesSplitsAndConsolidations(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 1024, MinFill: 0.4, Workers: 2, LogDevice: wal.NewMemDevice()})
	hot := []byte("hot-key")
	// Each goroutine keeps its last `live` fillers (≈1.7 KiB: more than a
	// page, so even goroutines that run one after another split leaves) and
	// deletes the rest as it goes, then all of them.
	const goroutines, perG, live = 8, 400, 20
	filler := func(g, n int) []byte { return []byte(fmt.Sprintf("hos-%02d-%06d", g, n)) }

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fillers := 0
			for i := 0; i < perG+live; i++ {
				var err error
				switch {
				case i >= perG: // the writing is over: delete what is left
					err = tr.Delete(filler(g, fillers-live+i-perG))
				case i%4 < 2:
					err = tr.Put(hot, []byte(fmt.Sprintf("h%02d-%06d", g, i)))
				case i%4 == 2:
					if err = tr.Delete(hot); errors.Is(err, ErrKeyNotFound) {
						err = nil
					}
				default:
					// Fillers sort just below the hot key, so they land in
					// and split its leaf.
					err = tr.Put(filler(g, fillers), bytes.Repeat([]byte{'x'}, 64))
					if fillers++; err == nil && fillers > live {
						err = tr.Delete(filler(g, fillers-live-1))
					}
				}
				if err == nil && i%16 == 0 {
					if _, err = tr.Get(hot); errors.Is(err, ErrKeyNotFound) {
						err = nil
					}
				}
				if err != nil {
					t.Errorf("g%d op %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	mustVerify(t, tr)
	if s := tr.Stats(); s.Splits == 0 || s.LeafConsolidated == 0 {
		t.Fatalf("workload raced no SMOs: %d splits, %d leaf consolidations", s.Splits, s.LeafConsolidated)
	}
	recs, err := tr.Records()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range recs {
		if k != string(hot) || !bytes.HasPrefix(v, []byte("h")) {
			t.Fatalf("unexpected survivor %q = %q", k, v)
		}
	}
}
