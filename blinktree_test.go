package blinktree_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"blinktree"
)

func TestOpenVolatileRoundTrip(t *testing.T) {
	tr, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get([]byte("hello"))
	if err != nil || string(got) != "world" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := tr.Delete([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get([]byte("hello")); !errors.Is(err, blinktree.ErrKeyNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestOpenDurableRecovers(t *testing.T) {
	dir := t.TempDir()
	tr, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	tr2, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	for i := 0; i < 500; i++ {
		got, err := tr2.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopened get %d: %q, %v", i, got, err)
		}
	}
	if err := tr2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesOpen(t *testing.T) {
	for _, b := range []blinktree.Baseline{
		blinktree.BaselinePaper, blinktree.BaselineDrain,
		blinktree.BaselineSerialSMO, blinktree.BaselineNoDelete,
	} {
		tr, err := blinktree.Open(blinktree.Options{Baseline: b, PageSize: 512})
		if err != nil {
			t.Fatalf("baseline %d: %v", b, err)
		}
		for i := 0; i < 200; i++ {
			tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
		}
		if err := tr.Verify(); err != nil {
			t.Fatalf("baseline %d verify: %v", b, err)
		}
		tr.Close()
	}
	if _, err := blinktree.Open(blinktree.Options{Baseline: blinktree.Baseline(99)}); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestTxnSavepointAndGetDelete(t *testing.T) {
	dir := t.TempDir()
	tr, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	x, _ := tr.Begin()
	x.Put([]byte("a"), []byte("1"))
	sp := x.Savepoint()
	x.Put([]byte("b"), []byte("2"))
	if err := x.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := x.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	if v, err := x.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("a = %q, %v", v, err)
	}
	if _, err := x.Get([]byte("b")); !errors.Is(err, blinktree.ErrKeyNotFound) {
		t.Fatalf("b = %v", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := tr.Has([]byte("a")); !ok {
		t.Fatal("a missing after commit")
	}
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorSeekPublic(t *testing.T) {
	tr, _ := blinktree.Open(blinktree.Options{})
	defer tr.Close()
	for i := 0; i < 50; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	cur := tr.NewCursor(nil, nil)
	cur.Seek([]byte("k040"))
	k, _, ok, err := cur.Next()
	if err != nil || !ok || string(k) != "k040" {
		t.Fatalf("after Seek: %q %v %v", k, ok, err)
	}
}

func TestTxnAPI(t *testing.T) {
	tr, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	x, err := tr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if x.ID() == 0 {
		t.Fatal("zero txn ID")
	}
	x.Put([]byte("a"), []byte("1"))
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}

	y, _ := tr.Begin()
	y.Put([]byte("a"), []byte("2"))
	if err := y.Abort(); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Get([]byte("a"))
	if string(got) != "1" {
		t.Fatalf("after abort: %q", got)
	}
}

func TestScanAndCursor(t *testing.T) {
	tr, _ := blinktree.Open(blinktree.Options{PageSize: 512})
	defer tr.Close()
	for i := 0; i < 300; i++ {
		tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte{byte(i)})
	}
	n, err := tr.Count([]byte("k00100"), []byte("k00200"))
	if err != nil || n != 100 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	cur := tr.NewCursor([]byte("k00290"), nil)
	seen := 0
	var last []byte
	for {
		k, _, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if last != nil && bytes.Compare(last, k) >= 0 {
			t.Fatal("cursor out of order")
		}
		last = append(last[:0], k...)
		seen++
	}
	if seen != 10 {
		t.Fatalf("cursor saw %d, want 10", seen)
	}
	if total, _ := tr.Len(); total != 300 {
		t.Fatalf("Len = %d", total)
	}
}

func TestReverseScanAndMinMax(t *testing.T) {
	tr, _ := blinktree.Open(blinktree.Options{PageSize: 512})
	defer tr.Close()
	for i := 0; i < 200; i++ {
		tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte{byte(i)})
	}
	var keys []string
	tr.ScanReverse([]byte("k00050"), []byte("k00060"), func(k, _ []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if len(keys) != 10 || keys[0] != "k00059" || keys[9] != "k00050" {
		t.Fatalf("reverse scan: %v", keys)
	}
	mink, _, err := tr.Min()
	if err != nil || string(mink) != "k00000" {
		t.Fatalf("Min = %q, %v", mink, err)
	}
	maxk, _, err := tr.Max()
	if err != nil || string(maxk) != "k00199" {
		t.Fatalf("Max = %q, %v", maxk, err)
	}
}

func TestMaintainAndStats(t *testing.T) {
	var first blinktree.Stats
	for _, mode := range []blinktree.FeatureMode{blinktree.FeatureDefault, blinktree.FeatureOn, blinktree.FeatureOff} {
		//lint:ignore SA1019 the last assertion below is about the deprecated field
		tr, _ := blinktree.Open(blinktree.Options{PageSize: 512, Workers: -1, Combining: mode})
		defer tr.Close()
		for i := 0; i < 1000; i++ {
			tr.Put([]byte(fmt.Sprintf("k%05d", i)), bytes.Repeat([]byte("v"), 20))
		}
		tr.Maintain()
		s := tr.Stats()
		if s.Splits == 0 || s.PostsDone == 0 {
			t.Fatalf("stats = %+v", s)
		}
		if tr.Height() == 0 {
			t.Fatal("height 0 after 1000 inserts on 512-byte pages")
		}
		// The deprecated Options.Combining is inert: a single-threaded run
		// counts the same under every value.
		if mode == blinktree.FeatureDefault {
			first = s
		} else if s != first {
			t.Fatalf("Combining=%d changed the counters:\n%+v\nwant %+v", mode, s, first)
		}
	}
}

func TestCustomComparatorPublic(t *testing.T) {
	ci := func(a, b []byte) int { return bytes.Compare(bytes.ToLower(a), bytes.ToLower(b)) }
	tr, err := blinktree.Open(blinktree.Options{Comparator: ci})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Put([]byte("Apple"), []byte("1"))
	tr.Put([]byte("BANANA"), []byte("2"))
	got, err := tr.Get([]byte("apple"))
	if err != nil || string(got) != "1" {
		t.Fatalf("case-folded get: %q, %v", got, err)
	}
	var order []string
	tr.Scan(nil, nil, func(k, _ []byte) bool {
		order = append(order, string(k))
		return true
	})
	if len(order) != 2 || order[0] != "Apple" {
		t.Fatalf("scan order: %v", order)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestScanPrefix(t *testing.T) {
	tr, _ := blinktree.Open(blinktree.Options{})
	defer tr.Close()
	for _, k := range []string{"app", "apple", "apple-pie", "applz", "banana", "appl"} {
		tr.Put([]byte(k), []byte("v"))
	}
	var got []string
	tr.ScanPrefix([]byte("appl"), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"appl", "apple", "apple-pie", "applz"}
	if len(got) != len(want) {
		t.Fatalf("prefix scan: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix scan: %v, want %v", got, want)
		}
	}
	// All-0xFF prefix: successor is +inf.
	tr.Put([]byte{0xFF, 0xFF, 0x01}, []byte("v"))
	n := 0
	tr.ScanPrefix([]byte{0xFF, 0xFF}, func(_, _ []byte) bool { n++; return true })
	if n != 1 {
		t.Fatalf("0xFF prefix scan saw %d", n)
	}
}

// TestBulkLoadPublicAPI loads a volatile tree and a durable one; the
// durable load's builders write its leaf chunks, about ten, to a real
// pages.db, which must reopen with every record.
func TestBulkLoadPublicAPI(t *testing.T) {
	const n = 20000
	dir := t.TempDir()
	for _, opts := range []blinktree.Options{{PageSize: 512}, {PageSize: 512, Path: dir}} {
		tr, err := blinktree.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		err = tr.BulkLoad(func() ([]byte, []byte, bool) {
			if i >= n {
				return nil, nil, false
			}
			k := []byte(fmt.Sprintf("k%06d", i))
			i++
			return k, []byte("v"), true
		}, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Path != "" {
			if c := tr.Snapshot().Stats.BulkLoadChunks; c < 2 {
				t.Fatalf("the durable load took %d chunks; want several", c)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if tr, err = blinktree.Open(opts); err != nil {
				t.Fatal(err)
			}
		}
		if got, _ := tr.Len(); got != n {
			t.Fatalf("Path %q: Len = %d", opts.Path, got)
		}
		if err := tr.Verify(); err != nil {
			t.Fatal(err)
		}
		tr.Close()
	}
}

func TestConcurrentPublicAPI(t *testing.T) {
	tr, _ := blinktree.Open(blinktree.Options{PageSize: 512})
	defer tr.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("g%d-%04d", g, i))
				tr.Put(k, []byte("v"))
				tr.Get(k)
				if i%3 == 0 {
					tr.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

func ExampleTree() {
	tr, _ := blinktree.Open(blinktree.Options{})
	defer tr.Close()
	tr.Put([]byte("b"), []byte("2"))
	tr.Put([]byte("a"), []byte("1"))
	tr.Put([]byte("c"), []byte("3"))
	tr.Scan(nil, nil, func(k, v []byte) bool {
		fmt.Printf("%s=%s\n", k, v)
		return true
	})
	// Output:
	// a=1
	// b=2
	// c=3
}
