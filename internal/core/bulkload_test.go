package core

import (
	"bytes"
	"errors"
	"testing"

	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// pairFeeder returns a next() over n sequential records.
func pairFeeder(n int) func() ([]byte, []byte, bool) {
	i := 0
	return func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		k, v := key(i), valb(i)
		i++
		return k, v, true
	}
}

func TestBulkLoadBasic(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 5000
	if err := tr.BulkLoad(pairFeeder(n), 0.85); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, tr)
	if cnt, _ := tr.Len(); cnt != n {
		t.Fatalf("Len = %d, want %d", cnt, n)
	}
	for i := 0; i < n; i += 97 {
		got, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("get %d: %q, %v", i, got, err)
		}
	}
	if tr.Height() == 0 {
		t.Fatal("bulk loaded tree has height 0")
	}
	// The tree must behave normally afterwards: inserts, deletes, splits.
	for i := n; i < n+500; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustVerify(t, tr)
}

func TestBulkLoadEmptyStream(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	if err := tr.BulkLoad(pairFeeder(0), 0.85); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, tr)
	if cnt, _ := tr.Len(); cnt != 0 {
		t.Fatalf("Len = %d", cnt)
	}
	if err := tr.Put(key(1), valb(1)); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsNonEmptyTree(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	tr.Put(key(1), valb(1))
	if err := tr.BulkLoad(pairFeeder(10), 0.85); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("bulk load on non-empty tree: %v", err)
	}
}

func TestBulkLoadRejectsUnsortedInput(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	i := 0
	bad := func() ([]byte, []byte, bool) {
		i++
		switch i {
		case 1:
			return key(5), valb(5), true
		case 2:
			return key(3), valb(3), true // out of order
		default:
			return nil, nil, false
		}
	}
	if err := tr.BulkLoad(bad, 0.85); err == nil {
		t.Fatal("unsorted bulk load accepted")
	}
	// The failed load must not leak pages: only the formatting root lives.
	if live := tr.StoreStats().LivePages; live != 1 {
		t.Fatalf("live pages after failed load = %d, want 1", live)
	}
	// The tree is still usable.
	if err := tr.Put(key(1), valb(1)); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, tr)
}

func TestBulkLoadFillFactor(t *testing.T) {
	for _, fill := range []float64{0.6, 0.95} {
		tr := newTestTree(t, Options{PageSize: 512})
		if err := tr.BulkLoad(pairFeeder(3000), fill); err != nil {
			t.Fatal(err)
		}
		mustVerify(t, tr)
		leaves, err := tr.LevelNodes(0)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, id := range leaves {
			info, _ := tr.NodeSnapshot(id)
			total += info.Size
		}
		got := float64(total) / float64(len(leaves)*512)
		if got < fill-0.25 || got > fill+0.10 {
			t.Fatalf("fill %.2f produced average occupancy %.2f", fill, got)
		}
		tr.Close()
	}
}

func TestBulkLoadSurvivesCrash(t *testing.T) {
	dev, store := wal.NewMemDevice(), storage.NewMemStore(512)
	tr, err := New(Options{PageSize: 512, LogDevice: dev,
		Store: store, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	if err := tr.BulkLoad(pairFeeder(n), 0.85); err != nil {
		t.Fatal(err)
	}
	// BulkLoad forces its pages and then its log itself; crash with
	// nothing else flushed. The log holds the load's allocations only: the
	// store is the one copy of its pages.
	dev.Crash()
	tr.Abandon()

	tr2, err := New(Options{PageSize: 512, LogDevice: dev,
		Store: store, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	mustVerify(t, tr2)
	if cnt, _ := tr2.Len(); cnt != n {
		t.Fatalf("recovered Len = %d, want %d", cnt, n)
	}
	for i := 0; i < n; i += 131 {
		if _, err := tr2.Get(key(i)); err != nil {
			t.Fatalf("recovered get %d: %v", i, err)
		}
	}
}

func TestBulkLoadThenReverseScan(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	if err := tr.BulkLoad(pairFeeder(1200), 0.85); err != nil {
		t.Fatal(err)
	}
	var prev []byte
	count := 0
	tr.ScanReverse(nil, nil, func(k, _ []byte) bool {
		if prev != nil && bytes.Compare(prev, k) <= 0 {
			t.Fatalf("reverse order violation")
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != 1200 {
		t.Fatalf("reverse scan saw %d", count)
	}
}
