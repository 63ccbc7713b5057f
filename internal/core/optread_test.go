package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"blinktree/internal/latch"
	"blinktree/internal/obs"
)

// TestOptReadBasic checks that optimistic reads return the right answers on
// a multi-level tree, that the attempt counter moves, and that a quiescent
// tree never sends a read to the latched fallback — a read path that always
// fell back would otherwise pass every answer check and the scaling gate.
func TestOptReadBasic(t *testing.T) {
	tr := newTestTree(t, Options{})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if tr.Height() == 0 {
		t.Fatal("tree did not grow; test needs index levels")
	}
	for i := 0; i < n; i++ {
		got, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, valb(i)) {
			t.Fatalf("Get %d = %q", i, got)
		}
	}
	s := tr.Stats()
	if s.OptReadAttempts == 0 {
		t.Fatal("no optimistic attempts recorded")
	}
	if s.OptReadFallbacks != 0 {
		t.Fatalf("%d quiescent reads fell back to the latched traversal", s.OptReadFallbacks)
	}
	if s.OptReadAttempts < s.OptReadRestarts {
		t.Fatalf("restarts %d exceed attempts %d", s.OptReadRestarts, s.OptReadAttempts)
	}
	mustVerify(t, tr)
}

// TestOptReadFallback forces validation failures by holding the root's
// exclusive latch: the version word stays odd, every optimistic attempt
// fails immediately, and the read falls back to the pessimistic traversal,
// which blocks until the latch is released.
func TestOptReadFallback(t *testing.T) {
	if !obs.Compiled {
		t.Skip("trace events compiled out (obsoff)")
	}
	tr := newTestTree(t, Options{Observability: &obs.Config{Trace: true}})
	for i := 0; i < 2000; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	rootID, _ := tr.readAnchor()
	root, err := tr.fetch(rootID)
	if err != nil {
		t.Fatal(err)
	}
	root.latch.Acquire(latch.Exclusive)

	done := make(chan error, 1)
	go func() {
		v, err := tr.Get(key(7))
		if err == nil && !bytes.Equal(v, valb(7)) {
			err = fmt.Errorf("wrong value %q", v)
		}
		done <- err
	}()
	// The reader must reach its pessimistic fallback and park on the root
	// latch; fallbacks is bumped before the latch acquire, so poll for it.
	for {
		if tr.Stats().OptReadFallbacks > 0 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("Get finished before fallback was recorded: %v", err)
		default:
		}
	}
	tr.unlatchUnpin(root, latch.Exclusive, false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.OptReadRestarts < uint64(3) {
		t.Fatalf("restarts = %d, want >= maxOptAttempts", s.OptReadRestarts)
	}
	var sawFallback bool
	for _, ev := range tr.TraceEvents() {
		if ev.Kind == obs.EvOptFallback {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatal("no EvOptFallback trace event")
	}
}

// TestOptReadReverseFallback is TestOptReadFallback for a reverse scan: with
// the root held exclusively every optimistic descent below a bound fails at
// once, the scan falls back to the latched traversal, which waits for the
// latch, and the scan's span records the restarts and the fallback.
func TestOptReadReverseFallback(t *testing.T) {
	if !obs.Compiled {
		t.Skip("spans compiled out (obsoff)")
	}
	tr := newTestTree(t, Options{Observability: &obs.Config{Spans: true, SampleEvery: 1}})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	rootID, _ := tr.readAnchor()
	root, err := tr.fetch(rootID)
	if err != nil {
		t.Fatal(err)
	}
	root.latch.Acquire(latch.Exclusive)

	done := make(chan error, 1)
	go func() {
		var got []byte
		err := tr.ScanReverse(nil, nil, func(k, _ []byte) bool { got = k; return false })
		if err == nil && !bytes.Equal(got, key(n-1)) {
			err = fmt.Errorf("first record of the reverse scan %q, want %q", got, key(n-1))
		}
		done <- err
	}()
	for tr.Stats().OptReadFallbacks == 0 {
		select {
		case err := <-done:
			t.Fatalf("ScanReverse finished before fallback was recorded: %v", err)
		default:
		}
	}
	tr.unlatchUnpin(root, latch.Exclusive, false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans() {
		if sp.Op == obs.OpScan && sp.Fallback && sp.Restarts >= maxOptAttempts {
			return
		}
	}
	t.Fatal("no scan span recorded the optimistic restarts and the fallback")
}

// TestTraverseExhaustedCounter drives both paths into livelock with a
// directly poisoned root (dead flag set outside any SMO): the optimistic
// attempts burn their budget, fall back, and the pessimistic traversal
// exhausts its restart bound. The error, counter and trace event must all
// fire.
func TestTraverseExhaustedCounter(t *testing.T) {
	if !obs.Compiled {
		t.Skip("trace events compiled out (obsoff)")
	}
	tr := newTestTree(t, Options{Observability: &obs.Config{Trace: true}})
	if err := tr.Put(key(1), valb(1)); err != nil {
		t.Fatal(err)
	}
	rootID, _ := tr.readAnchor()
	root, err := tr.fetch(rootID)
	if err != nil {
		t.Fatal(err)
	}
	root.latch.Acquire(latch.Exclusive)
	root.kill()
	tr.unlatchUnpin(root, latch.Exclusive, false)

	_, err = tr.Get(key(1))
	if err == nil || !strings.Contains(err.Error(), "live-locked") {
		t.Fatalf("Get on poisoned root: %v", err)
	}
	s := tr.Stats()
	if s.TraverseExhausted == 0 {
		t.Fatal("TraverseExhausted not counted")
	}
	if s.OptReadFallbacks == 0 {
		t.Fatal("optimistic attempts should have fallen back first")
	}
	var saw bool
	for _, ev := range tr.TraceEvents() {
		if ev.Kind == obs.EvTraverseExhausted {
			saw = true
		}
	}
	if !saw {
		t.Fatal("no EvTraverseExhausted trace event")
	}
}

// TestOptReadConcurrentRootShrink races optimistic readers against a purge
// that collapses the tree's height (root shrink SMOs run on workers), then
// re-grows it. Run under -race this exercises descent through dying index
// levels and stale anchor reads.
func TestOptReadConcurrentRootShrink(t *testing.T) {
	tr := newTestTree(t, Options{Workers: 2})
	const n = 4000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if tr.Height() < 1 {
		t.Fatal("need index levels")
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key((i*13 + g) % n)
				if _, err := tr.Get(k); err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(g)
	}
	// Shrink: delete everything but one key, drive maintenance to collapse
	// levels, then rebuild — twice.
	for round := 0; round < 2; round++ {
		for i := 1; i < n; i++ {
			if err := tr.Delete(key(i)); err != nil && !errors.Is(err, ErrKeyNotFound) {
				t.Fatal(err)
			}
		}
		for r := 0; r < 10; r++ {
			tr.DrainTodo()
			tr.Has(key(0))
		}
		for i := 1; i < n; i++ {
			if err := tr.Put(key(i), valb(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
	mustVerify(t, tr)
}

// TestOptReadSideChainsUnderSplits runs readers over a tree whose index
// terms are never posted (no workers, no drains during the run), so every
// descent lands left of its target and walks split-sibling chains via side
// pointers — through index snapshots on index levels and latched side steps
// at the leaves.
func TestOptReadSideChainsUnderSplits(t *testing.T) {
	tr := newTestTree(t, Options{}) // WorkersNone via newTestTree
	const n = 1500
	for i := 0; i < 200; i++ {
		if err := tr.Put(key(i*7), valb(i*7)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tr.Get(key((i*11 + g) % n)); err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(g)
	}
	// Writers split leaves constantly; postings stay queued, so side chains
	// grow until the drain below.
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if tr.Stats().SideTraversals == 0 {
		t.Fatal("no side traversals: test exercised nothing")
	}
	mustVerify(t, tr)
}

// TestOptReadUnderEvictionPressure reruns the read path with a cache far
// smaller than the tree, so descents race page loads and evictions, both
// optimistic and, as the reference, latched.
func TestOptReadUnderEvictionPressure(t *testing.T) {
	for _, latched := range []bool{false, true} {
		name := "optimistic"
		if latched {
			name = "pessimistic"
		}
		t.Run(name, func(t *testing.T) {
			tr := newTestTree(t, Options{CacheSize: 64, Workers: 2})
			if latched {
				withLatchedReads(tr)
			}
			const n = 8000
			for i := 0; i < n; i++ {
				if err := tr.Put(key(i), valb(i)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 4000; i++ {
						if _, err := tr.Get(key((i*7 + g) % n)); err != nil {
							t.Errorf("Get: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestOptReadMixedEquivalence runs one deterministic workload against an
// optimistic tree and a latched-read one concurrently mutated the same way,
// then compares full contents.
func TestOptReadMixedEquivalence(t *testing.T) {
	run := func(latched bool) map[string][]byte {
		tr := newTestTree(t, Options{Workers: 2})
		if latched {
			withLatchedReads(tr)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3000; i++ {
					k := (i*4 + g) // disjoint per goroutine: deterministic final state
					switch {
					case i%5 == 4:
						tr.Delete(key(k))
					case i%3 == 0:
						tr.Get(key((i + g) % 6000))
					default:
						if err := tr.Put(key(k), valb(k)); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		mustVerify(t, tr)
		recs, err := tr.Records()
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	opt := run(false)
	pes := run(true)
	if len(opt) != len(pes) {
		t.Fatalf("record counts differ: optimistic %d, pessimistic %d", len(opt), len(pes))
	}
	for k, v := range pes {
		if !bytes.Equal(opt[k], v) {
			t.Fatalf("mismatch at %q", k)
		}
	}
}

// TestOptReadReverseAndCursor covers the optimistic descents used by
// reverse scans and cursors while writers churn.
func TestOptReadReverseAndCursor(t *testing.T) {
	tr := newTestTree(t, Options{Workers: 2})
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := key(n + i%2000)
			if i%2 == 0 {
				tr.Put(k, valb(i))
			} else {
				tr.Delete(k)
			}
		}
	}()
	for round := 0; round < 20; round++ {
		// Forward cursor over a slice of the stable keyspace.
		seen := 0
		err := tr.Scan(key(100), key(200), func(k, v []byte) bool {
			seen++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != 100 {
			t.Fatalf("forward scan saw %d of 100 stable keys", seen)
		}
		seen = 0
		err = tr.ScanReverse(key(100), key(200), func(k, v []byte) bool {
			seen++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != 100 {
			t.Fatalf("reverse scan saw %d of 100 stable keys", seen)
		}
	}
	close(stop)
	writers.Wait()
	mustVerify(t, tr)
}
