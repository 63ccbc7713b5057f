package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// poisonStore is a MemStore whose ReadInto fills the buffer with poison
// before it copies the page in, so a reader still holding a view of an
// image the pool reads into sees garbage — and, under -race, races with the
// copy.
type poisonStore struct {
	*storage.MemStore
	into atomic.Int64
}

func (s *poisonStore) ReadInto(id page.PageID, buf []byte) error {
	s.into.Add(1)
	for i := range buf {
		buf[i] = 0xA5
	}
	return s.MemStore.ReadInto(id, buf)
}

// TestRecycledImagesAgainstModel runs a tree whose pool reads most misses
// into an evicted leaf's image — 12 frames over a poisoning store — through
// puts, deletes, gets, forward and reverse scans and transactions against a
// shadow model, with a worker running the lazy SMOs, Verify and VerifyDeep
// every few hundred steps, then a crash and a recovery, and more steps on
// the recovered tree.
func TestRecycledImagesAgainstModel(t *testing.T) {
	st := &poisonStore{MemStore: storage.NewMemStore(256)}
	dev := wal.NewMemDevice()
	opts := Options{
		PageSize: 256, CacheSize: 12, MinFill: 0.4,
		Workers: 1, Store: st, LogDevice: dev,
	}
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(41))
	value := func() []byte {
		v := make([]byte, 1+rng.Intn(40))
		rng.Read(v)
		return v
	}
	// scan checks a forward or reverse scan of [lo, hi) against the model.
	scan := func(tr *Tree, lo, hi []byte, reverse bool) {
		t.Helper()
		var want []string
		for k := range model {
			if k >= string(lo) && (hi == nil || k < string(hi)) {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		if reverse {
			slices.Reverse(want)
		}
		i := 0
		fn := func(k, v []byte) bool {
			if i >= len(want) || string(k) != want[i] || !bytes.Equal(v, model[want[i]]) {
				t.Fatalf("scan [%q, %q) reverse=%v: record %d is %q, model wants %d records", lo, hi, reverse, i, k, len(want))
			}
			i++
			return true
		}
		var err error
		if reverse {
			err = tr.ScanReverse(lo, hi, fn)
		} else {
			err = tr.Scan(lo, hi, fn)
		}
		if err != nil || i != len(want) {
			t.Fatalf("scan [%q, %q) reverse=%v saw %d records, model has %d (%v)", lo, hi, reverse, i, len(want), err)
		}
	}
	// txn runs one transaction of a few operations and commits or aborts it.
	txn := func(tr *Tree) {
		t.Helper()
		x, err := tr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		mine := map[string][]byte{} // the transaction's writes; nil deletes
		for range 1 + rng.Intn(4) {
			k := key(rng.Intn(500))
			want, ok := model[string(k)]
			if v, wrote := mine[string(k)]; wrote {
				want, ok = v, v != nil
			}
			switch rng.Intn(3) {
			case 0:
				v := value()
				if err := x.Put(k, v); err != nil {
					t.Fatal(err)
				}
				mine[string(k)] = v
			case 1:
				if err := x.Delete(k); ok != (err == nil) || err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Fatalf("txn delete %q: %v, present %v", k, err, ok)
				}
				mine[string(k)] = nil
			default:
				got, err := x.Get(k)
				if ok != (err == nil) || !bytes.Equal(got, want) {
					t.Fatalf("txn get %q = %q, %v; want %q (present %v)", k, got, err, want, ok)
				}
			}
		}
		if rng.Intn(4) == 0 {
			if err := x.Abort(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		for k, v := range mine {
			if v == nil {
				delete(model, k)
			} else {
				model[k] = v
			}
		}
	}
	verify := func(tr *Tree) {
		t.Helper()
		mustVerify(t, tr)
		if _, err := tr.VerifyDeep(); err != nil {
			t.Fatal(err)
		}
		scan(tr, nil, nil, false)
	}
	run := func(tr *Tree, steps int) {
		for step := 1; step <= steps; step++ {
			k := key(rng.Intn(500))
			put := 5 // growing and shrinking phases
			if step/800%2 == 1 {
				put = 2
			}
			switch op := rng.Intn(10); {
			case op < put:
				v := value()
				if err := tr.Put(k, v); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = v
			case op < 6:
				err := tr.Delete(k)
				if _, ok := model[string(k)]; ok != (err == nil) || err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Fatalf("delete %q: %v, model present %v", k, err, ok)
				}
				delete(model, string(k))
			case op < 8:
				got, err := tr.Get(k)
				if want, ok := model[string(k)]; ok != (err == nil) || !bytes.Equal(got, want) {
					t.Fatalf("get %q = %q, %v; model has %q (present %v)", k, got, err, want, ok)
				}
			case op < 9:
				scan(tr, k, key(rng.Intn(500)+40), rng.Intn(2) == 0)
			default:
				txn(tr)
			}
			if step%300 == 0 {
				verify(tr)
			}
		}
	}
	run(tr, 4000)
	s := tr.Stats()
	if s.Splits == 0 || s.LeafConsolidated == 0 || st.into.Load() == 0 {
		t.Fatalf("workload did not exercise its subject: %d splits, %d leaf consolidations, %d reads into an evicted image",
			s.Splits, s.LeafConsolidated, st.into.Load())
	}

	if err := tr.log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	tr.todo.stop()
	tr2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	verify(tr2)
	run(tr2, 1500)
	verify(tr2)
	t.Logf("%d reads into an evicted image; %d splits, %d leaf consolidations", st.into.Load(), s.Splits, s.LeafConsolidated)
}

// TestVerifyAcrossRecycledImages: Verify keeps the previous leaf's last key
// past that leaf's unpin. Over a pool of two frames the next leaf's fetch
// often evicts that leaf and reads into its image, so only a copy of the key
// survives to be compared.
func TestVerifyAcrossRecycledImages(t *testing.T) {
	st := &poisonStore{MemStore: storage.NewMemStore(256)}
	opts := Options{PageSize: 256, CacheSize: 16, Workers: WorkersNone, Store: st, LogDevice: wal.NewMemDevice()}
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Put(key(i*7919%3000), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Verify pins at most two nodes at once: a parent and one child.
	opts.CacheSize = 2
	if tr, err = New(opts); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	mustVerify(t, tr)
	if st.into.Load() == 0 {
		t.Fatal("the pool never read into an evicted leaf's image")
	}
}
