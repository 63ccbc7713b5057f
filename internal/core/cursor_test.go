package core

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCursorLeafSnapshot pins the documented semantics: a cursor observes a
// snapshot per leaf. A record deleted from the leaf being served is still
// returned; one deleted from a leaf not yet read is not.
func TestCursorLeafSnapshot(t *testing.T) {
	tr := newTestTree(t, Options{})
	for i := 0; i < 100; i++ {
		tr.Put(key(i), valb(i))
	}
	cur := tr.NewCursor(nil, nil)
	if k, _, ok, err := cur.Next(); err != nil || !ok || !bytes.Equal(k, key(0)) {
		t.Fatalf("first record: %q %v %v", k, ok, err)
	}
	inLeaf := len(cur.batch) / 2 // records batched from the first leaf
	if inLeaf < 3 || inLeaf > 50 {
		t.Fatalf("first leaf batched %d records", inLeaf)
	}
	if err := tr.Delete(key(1)); err != nil { // in the leaf already read
		t.Fatal(err)
	}
	if err := tr.Delete(key(inLeaf)); err != nil { // first record of the next leaf
		t.Fatal(err)
	}
	for want := 1; want < 100; want++ {
		if want == inLeaf {
			continue
		}
		k, v, ok, err := cur.Next()
		if err != nil || !ok || !bytes.Equal(k, key(want)) || !bytes.Equal(v, valb(want)) {
			t.Fatalf("record %d: %q=%q %v %v", want, k, v, ok, err)
		}
	}
	if _, _, ok, _ := cur.Next(); ok {
		t.Fatal("cursor ran past the last record")
	}
}

// TestCursorCallerOwnsRecords: what Next returns stays intact whatever the
// cursor does next (refill, Seek), and the cursor's position survives the
// caller scribbling over what it was handed.
func TestCursorCallerOwnsRecords(t *testing.T) {
	tr := newTestTree(t, Options{})
	for i := 0; i < 200; i++ {
		tr.Put(key(i), valb(i))
	}
	cur := tr.NewCursor(nil, nil)
	var keys, vals [][]byte
	for i := 0; i < 120; i++ {
		k, v, ok, err := cur.Next()
		if err != nil || !ok {
			t.Fatal(ok, err)
		}
		keys, vals = append(keys, k), append(vals, v)
	}
	cur.Seek(key(7))
	if k, _, _, _ := cur.Next(); !bytes.Equal(k, key(7)) {
		t.Fatalf("after Seek(7): %q", k)
	}
	for i := range keys {
		if !bytes.Equal(keys[i], key(i)) || !bytes.Equal(vals[i], valb(i)) {
			t.Fatalf("record %d changed after being returned: %q=%q", i, keys[i], vals[i])
		}
	}

	// Scribble over every returned byte (appends included): the scan goes on.
	cur = tr.NewCursor(nil, nil)
	for want := 0; want < 200; want++ {
		k, v, ok, err := cur.Next()
		if err != nil || !ok || !bytes.Equal(k, key(want)) {
			t.Fatalf("record %d: %q %v %v", want, k, ok, err)
		}
		for i := range k {
			k[i] = 0xFF
		}
		_, _ = append(k, "zzzz"...), append(v, "zzzz"...)
	}
}

// TestScanStatCountsDeliveredRecords: Stats.Scans counts records handed to
// the caller, published a leaf at a time rather than one add per record.
func TestScanStatCountsDeliveredRecords(t *testing.T) {
	tr := newTestTree(t, Options{})
	for i := 0; i < 300; i++ {
		tr.Put(key(i), valb(i))
	}
	delivered := func(f func()) uint64 {
		before := tr.Stats().Scans
		f()
		return tr.Stats().Scans - before
	}
	if n := delivered(func() { tr.Count(nil, nil) }); n != 300 {
		t.Fatalf("full scan counted %d records, want 300", n)
	}
	if n := delivered(func() {
		seen := 0
		tr.Scan(key(40), nil, func(_, _ []byte) bool { seen++; return seen < 7 })
	}); n != 7 {
		t.Fatalf("scan stopped after 7 records counted %d", n)
	}
	if n := delivered(func() {
		cur := tr.NewCursor(nil, key(100))
		for i := 0; i < 5; i++ {
			cur.Next()
		}
		cur.Seek(key(90))
		for _, _, ok, _ := cur.Next(); ok; _, _, ok, _ = cur.Next() {
		}
	}); n != 15 {
		t.Fatalf("5 records, a Seek and 10 more counted %d", n)
	}
}

// TestCursorExactlyOnceUnderChurn runs full-range cursors against writers
// that keep inserting and deleting runs of keys around a fixed set of stable
// keys, on tiny pages and a small pool: leaves split, empty out and are
// deleted under the scans. Every scan must return keys in strictly ascending
// order (so none twice) and every stable key — present for the whole scan —
// exactly once, with its value.
func TestCursorExactlyOnceUnderChurn(t *testing.T) {
	const span, stride, writers, scanners = 4096, 8, 3, 2
	tr := newTestTree(t, Options{PageSize: 256, CacheSize: 64, MinFill: 0.45, Workers: 2})
	for i := 0; i < span; i += stride {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg, scans sync.WaitGroup
	var stop atomic.Bool
	var fullScans atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 250; round++ {
				// Fill a run of 64 keys between the stable ones, then empty it.
				// Runs of different writers are disjoint (mod writers).
				base := (rng.Intn(span/64/writers)*writers + w) * 64
				for _, del := range []bool{false, true} {
					for i := base; i < base+64; i++ {
						if i%stride == 0 {
							continue
						}
						var err error
						if del {
							err = tr.Delete(key(i))
						} else {
							err = tr.Put(key(i), valb(i))
						}
						if err != nil {
							t.Errorf("writer %d key %d (delete %v): %v", w, i, del, err)
							return
						}
					}
				}
			}
		}(w)
	}
	for s := 0; s < scanners; s++ {
		scans.Add(1)
		go func() {
			defer scans.Done()
			for last := false; !last; {
				last = stop.Load() // one more full scan after the writers finish
				cur := tr.NewCursor(nil, nil)
				var prev []byte
				stable := 0
				for {
					k, v, ok, err := cur.Next()
					if err != nil {
						t.Errorf("scan: %v", err)
						return
					}
					if !ok {
						break
					}
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("scan out of order: %q then %q", prev, k)
						return
					}
					prev = k
					if want := key(stable * stride); bytes.Equal(k, want) {
						if !bytes.Equal(v, valb(stable*stride)) {
							t.Errorf("stable key %q has value %q", k, v)
							return
						}
						stable++
					} else if bytes.Compare(k, want) > 0 {
						t.Errorf("scan skipped stable key %q (at %q)", want, k)
						return
					}
				}
				if stable != span/stride {
					t.Errorf("scan returned %d of %d stable keys", stable, span/stride)
					return
				}
				fullScans.Add(1)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	scans.Wait()
	s := tr.Stats()
	if s.Splits == 0 || s.LeafConsolidated == 0 {
		t.Fatalf("churn did not restructure the tree: %d splits, %d leaf consolidations", s.Splits, s.LeafConsolidated)
	}
	t.Logf("%d full scans against %d splits and %d leaf consolidations", fullScans.Load(), s.Splits, s.LeafConsolidated)
	mustVerify(t, tr)
}
