package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestMinMax(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	if _, _, err := tr.Max(); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Max on empty: %v", err)
	}
	if _, _, err := tr.Min(); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Min on empty: %v", err)
	}
	for i := 100; i < 600; i++ {
		tr.Put(key(i), valb(i))
	}
	k, v, err := tr.Min()
	if err != nil || !bytes.Equal(k, key(100)) || !bytes.Equal(v, valb(100)) {
		t.Fatalf("Min = %q, %q, %v", k, v, err)
	}
	k, v, err = tr.Max()
	if err != nil || !bytes.Equal(k, key(599)) || !bytes.Equal(v, valb(599)) {
		t.Fatalf("Max = %q, %q, %v", k, v, err)
	}
}

func TestScanReverseFull(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 800
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	// Both with and without posted index terms (side pointers are never
	// used backward, so laziness must not matter).
	for _, drain := range []bool{false, true} {
		if drain {
			tr.DrainTodo()
		}
		var got []string
		err := tr.ScanReverse(nil, nil, func(k, _ []byte) bool {
			got = append(got, string(k))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("drain=%v: reverse scan saw %d, want %d", drain, len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] <= got[i] {
				t.Fatalf("drain=%v: not descending at %d", drain, i)
			}
		}
		if got[0] != string(key(n-1)) || got[len(got)-1] != string(key(0)) {
			t.Fatalf("drain=%v: bounds %s .. %s", drain, got[0], got[len(got)-1])
		}
	}
}

func TestScanReverseRange(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	for i := 0; i < 500; i++ {
		tr.Put(key(i), valb(i))
	}
	var got []string
	err := tr.ScanReverse(key(100), key(200), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("range reverse scan: %d keys, want 100", len(got))
	}
	if got[0] != string(key(199)) || got[99] != string(key(100)) {
		t.Fatalf("bounds: %s .. %s", got[0], got[99])
	}
}

func TestScanReverseEarlyStop(t *testing.T) {
	tr := newTestTree(t, Options{})
	for i := 0; i < 50; i++ {
		tr.Put(key(i), valb(i))
	}
	count := 0
	tr.ScanReverse(nil, nil, func(_, _ []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop at %d", count)
	}
}

func TestReverseCursorExactBound(t *testing.T) {
	// high is an existing key: it must be excluded (exclusive bound), and
	// the boundary where bound == a node's High fence must not loop.
	tr := newTestTree(t, Options{PageSize: 512})
	for i := 0; i < 400; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	// Pick a leaf boundary key: the Low of the second leaf.
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 2 {
		t.Skip("single leaf")
	}
	info, _ := tr.NodeSnapshot(leaves[1])
	boundary := info.Low

	cur := tr.NewReverseCursor(nil, boundary)
	k, _, ok, err := cur.Next()
	if err != nil || !ok {
		t.Fatalf("Next at boundary: %v %v", ok, err)
	}
	if bytes.Compare(k, boundary) >= 0 {
		t.Fatalf("reverse cursor returned %q >= bound %q", k, boundary)
	}
}

func TestReverseWithEmptyLeaves(t *testing.T) {
	// Deleting all records of interior leaves (without consolidation)
	// leaves empty leaves in the chain; backward steps must skip them.
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0, Workers: WorkersNone})
	const n = 600
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	for i := 100; i < 500; i++ {
		tr.Delete(key(i))
	}
	var got []string
	if err := tr.ScanReverse(nil, nil, func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("reverse over empty leaves: %d keys, want 200", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] <= got[i] {
			t.Fatalf("not descending at %d", i)
		}
	}
}

func TestReverseConcurrentWithDeletes(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4, Workers: 2})
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if i%5 != 0 {
				tr.Delete(key(i))
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				var prev []byte
				err := tr.ScanReverse(nil, nil, func(k, _ []byte) bool {
					if prev != nil && bytes.Compare(prev, k) <= 0 {
						t.Errorf("reverse order violation: %q then %q", prev, k)
						return false
					}
					prev = append(prev[:0], k...)
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mustVerify(t, tr)
}

// TestQuickReverseMatchesForward: reverse scan of random data equals the
// forward scan reversed, over random ranges.
func TestQuickReverseMatchesForward(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(Options{PageSize: 512, Workers: WorkersNone})
		if err != nil {
			return false
		}
		defer tr.Close()
		for i := 0; i < 250; i++ {
			tr.Put(key(rng.Intn(400)), []byte(fmt.Sprintf("%d", i)))
		}
		lo, hi := rng.Intn(400), rng.Intn(400)
		if lo > hi {
			lo, hi = hi, lo
		}
		var fwd []string
		tr.Scan(key(lo), key(hi), func(k, _ []byte) bool {
			fwd = append(fwd, string(k))
			return true
		})
		var rev []string
		tr.ScanReverse(key(lo), key(hi), func(k, _ []byte) bool {
			rev = append(rev, string(k))
			return true
		})
		if len(fwd) != len(rev) {
			t.Logf("fwd %d, rev %d", len(fwd), len(rev))
			return false
		}
		sort.Sort(sort.Reverse(sort.StringSlice(fwd)))
		for i := range fwd {
			if fwd[i] != rev[i] {
				t.Logf("mismatch at %d: %s vs %s", i, fwd[i], rev[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReverseScanFetchesPerLeaf: a reverse scan reads a leaf per latch, so
// its buffer-pool fetches are bounded by one descent per leaf crossed — at
// most height+1 fetches each — not one descent per record.
func TestReverseScanFetchesPerLeaf(t *testing.T) {
	tr := newTestTree(t, Options{})
	const n = 400
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	height := int(tr.Height())
	if height == 0 {
		t.Fatal("tree did not grow; test needs index levels")
	}
	fetches := func() uint64 { s := tr.PoolStats(); return s.Hits + s.Misses }
	before := fetches()
	seen := 0
	if err := tr.ScanReverse(nil, nil, func(_, _ []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	got := fetches() - before
	if seen != n {
		t.Fatalf("reverse scan saw %d records, want %d", seen, n)
	}
	if bound := uint64((height + 1) * len(leaves)); got > bound {
		t.Fatalf("reverse scan of %d records over %d leaves (height %d) made %d buffer fetches, want <= %d",
			n, len(leaves), height, got, bound)
	}
}

// TestReverseScanSideStepEnqueuesPosting: a reverse descent that reaches a
// node through a side pointer has found a missing index term, and enqueues
// its posting exactly as a forward descent does (§2.3).
func TestReverseScanSideStepEnqueuesPosting(t *testing.T) {
	tr := newTestTree(t, Options{})
	i := 0
	for ; i < 100; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if tr.Height() == 0 {
		t.Fatal("tree did not grow; test needs index levels")
	}
	// Split the rightmost leaf and drop the posting the split enqueued: its
	// right half is now reachable only through the side pointer.
	for splits := tr.Stats().Splits; tr.Stats().Splits == splits; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.todo.takeAll()
	before := tr.Stats()
	seen := 0
	if err := tr.ScanReverse(nil, nil, func(_, _ []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	after := tr.Stats()
	if seen != i {
		t.Fatalf("reverse scan saw %d records, want %d", seen, i)
	}
	if after.SideTraversals == before.SideTraversals {
		t.Fatal("reverse scan made no side traversal: the posting was not missing")
	}
	if after.PostsEnqueued == before.PostsEnqueued {
		t.Fatal("reverse scan side-stepped past an unposted split without enqueueing its posting")
	}
	mustVerify(t, tr)
}

// TestScanReverseLeafSnapshot pins ScanReverse to Scan's semantics: a
// snapshot per leaf. A record deleted from the leaf being delivered is still
// returned; one deleted from a leaf not yet read is not.
func TestScanReverseLeafSnapshot(t *testing.T) {
	tr := newTestTree(t, Options{})
	const n = 100
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 3 {
		t.Fatalf("%d leaves; test needs at least 3", len(leaves))
	}
	last, err := tr.NodeSnapshot(leaves[len(leaves)-1])
	if err != nil {
		t.Fatal(err)
	}
	below := n - 1 // the largest record left of the last leaf: read by the next fill
	for bytes.Compare(key(below), last.Low) >= 0 {
		below--
	}
	if below >= n-2 {
		t.Fatalf("last leaf holds %d records; test needs at least 2", n-1-below)
	}
	var got []int
	err = tr.ScanReverse(nil, nil, func(k, v []byte) bool {
		if len(got) == 0 {
			if err := tr.Delete(key(n - 2)); err != nil { // in the leaf being delivered
				t.Fatal(err)
			}
			if err := tr.Delete(key(below)); err != nil { // in a leaf not yet read
				t.Fatal(err)
			}
		}
		var i int
		fmt.Sscanf(string(k), "key-%d", &i)
		if !bytes.Equal(v, valb(i)) {
			t.Fatalf("record %q = %q", k, v)
		}
		got = append(got, i)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := n - 1; i >= 0; i-- {
		if i != below {
			want = append(want, i)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reverse scan returned %v, want %v", got, want)
	}
}
