package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// collect scans a tree's full contents into parallel key/value slices.
func collect(t *testing.T, tr *Tree) ([][]byte, [][]byte) {
	t.Helper()
	var keys, vals [][]byte
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		vals = append(vals, append([]byte(nil), v...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, vals
}

// TestBulkLoadParallelMatchesSerial is the structural-identity property: a
// parallel load at any fan-out yields a tree with the same records, the
// same height and the same per-level node counts as a serial load of the
// same stream, and both pass the deep audit.
func TestBulkLoadParallelMatchesSerial(t *testing.T) {
	const n = 20000
	serial := newTestTree(t, Options{PageSize: 512})
	if err := serial.BulkLoad(pairFeeder(n), 0.85); err != nil {
		t.Fatal(err)
	}
	sRep, err := serial.VerifyDeep()
	if err != nil {
		t.Fatalf("serial deep verify: %v", err)
	}
	sKeys, sVals := collect(t, serial)
	if len(sKeys) != n {
		t.Fatalf("serial records = %d, want %d", len(sKeys), n)
	}

	for _, k := range []int{2, 4, 8} {
		k := k
		t.Run(fmt.Sprintf("parallel=%d", k), func(t *testing.T) {
			tr := newTestTree(t, Options{PageSize: 512})
			if err := tr.BulkLoadParallel(pairFeeder(n), 0.85, k); err != nil {
				t.Fatal(err)
			}
			rep, err := tr.VerifyDeep()
			if err != nil {
				t.Fatalf("deep verify: %v", err)
			}
			if rep.Height != sRep.Height {
				t.Errorf("height = %d, serial %d", rep.Height, sRep.Height)
			}
			for lvl := range sRep.NodesPerLevel {
				if rep.NodesPerLevel[lvl] != sRep.NodesPerLevel[lvl] {
					t.Errorf("level %d nodes = %d, serial %d",
						lvl, rep.NodesPerLevel[lvl], sRep.NodesPerLevel[lvl])
				}
			}
			keys, vals := collect(t, tr)
			if len(keys) != len(sKeys) {
				t.Fatalf("records = %d, serial %d", len(keys), len(sKeys))
			}
			for i := range keys {
				if !bytes.Equal(keys[i], sKeys[i]) || !bytes.Equal(vals[i], sVals[i]) {
					t.Fatalf("record %d mismatch: %q/%q vs %q/%q",
						i, keys[i], vals[i], sKeys[i], sVals[i])
				}
			}
		})
	}
}

// TestBulkLoadParallelCustomComparator checks the non-bytewise path: no
// suffix truncation, no prefix compression, yet serial and parallel loads
// still agree structurally.
func TestBulkLoadParallelCustomComparator(t *testing.T) {
	rev := func(a, b []byte) int { return bytes.Compare(a, b) } // bytewise order, custom identity
	const n = 6000
	serial := newTestTree(t, Options{PageSize: 512, Compare: rev})
	if err := serial.BulkLoad(pairFeeder(n), 0.85); err != nil {
		t.Fatal(err)
	}
	sRep, err := serial.VerifyDeep()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTestTree(t, Options{PageSize: 512, Compare: rev})
	if err := tr.BulkLoadParallel(pairFeeder(n), 0.85, 4); err != nil {
		t.Fatal(err)
	}
	rep, err := tr.VerifyDeep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Height != sRep.Height || rep.Records != sRep.Records {
		t.Fatalf("parallel %d/%d vs serial %d/%d",
			rep.Height, rep.Records, sRep.Height, sRep.Records)
	}
	for lvl := range sRep.NodesPerLevel {
		if rep.NodesPerLevel[lvl] != sRep.NodesPerLevel[lvl] {
			t.Errorf("level %d nodes = %d, serial %d",
				lvl, rep.NodesPerLevel[lvl], sRep.NodesPerLevel[lvl])
		}
	}
}

// TestBulkLoadParallelStats checks the BulkLoadPages/BulkLoadChunks
// counters: pages equals the audit's node count, chunks is positive.
func TestBulkLoadParallelStats(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, BulkChunkPages: 8})
	if err := tr.BulkLoadParallel(pairFeeder(5000), 0.85, 4); err != nil {
		t.Fatal(err)
	}
	rep, err := tr.VerifyDeep()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range rep.NodesPerLevel {
		total += c
	}
	s := tr.Stats()
	if s.BulkLoadPages != uint64(total) {
		t.Errorf("BulkLoadPages = %d, audit reached %d nodes", s.BulkLoadPages, total)
	}
	if s.BulkLoadChunks == 0 {
		t.Error("BulkLoadChunks = 0")
	}
}

// TestBulkLoadEmptiedByDeletes loads a tree that once held data: grown to
// height >= 1, fully emptied by deletes and shrunk back to a level-0 root.
// BulkLoad must accept it (it holds no records) — the emptiness check is
// anchor-level-first, with the root fetch only disambiguating level 0.
func TestBulkLoadEmptiedByDeletes(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if tr.Height() == 0 {
		t.Fatal("tree did not grow")
	}
	for i := 0; i < n; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Under-utilization is detected during descents, so alternate probe
	// rounds with drains until the root collapses back to a leaf.
	for round := 0; round < 30 && tr.Height() > 0; round++ {
		for i := 0; i < n; i += 37 {
			tr.Get(key(i))
		}
		tr.DrainTodo()
	}
	if h := tr.Height(); h != 0 {
		t.Fatalf("tree did not shrink back to a leaf root (height %d)", h)
	}
	if err := tr.BulkLoad(pairFeeder(500), 0.85); err != nil {
		t.Fatalf("bulk load on emptied tree: %v", err)
	}
	mustVerify(t, tr)
	if cnt, _ := tr.Len(); cnt != 500 {
		t.Fatalf("Len = %d", cnt)
	}
}

// TestBulkLoadRejectsShrunkNonEmptyTree is the counterpart: a tree shrunk
// back to a level-0 root that still holds records is refused.
func TestBulkLoadRejectsShrunkNonEmptyTree(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	for i := 0; i < n-3; i++ {
		tr.Delete(key(i))
	}
	for round := 0; round < 30 && tr.Height() > 0; round++ {
		for i := 0; i < n; i += 37 {
			tr.Get(key(i))
		}
		tr.DrainTodo()
	}
	if h := tr.Height(); h != 0 {
		t.Skipf("tree kept height %d with 3 records", h)
	}
	if err := tr.BulkLoad(pairFeeder(10), 0.85); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("bulk load on shrunk non-empty tree: %v", err)
	}
}

// TestBulkLoadParallelSurvivesCrash crashes immediately after a parallel,
// chunk-logged load — nothing flushed after it — and recovers over the same
// store, which the load forced before its commit record: no chunk is
// skipped and the open starts at the load's own checkpoint.
func TestBulkLoadParallelSurvivesCrash(t *testing.T) {
	dev, store := wal.NewMemDevice(), storage.NewMemStore(512)
	tr, err := New(Options{PageSize: 512, LogDevice: dev, BulkChunkPages: 4,
		Store: store, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	if err := tr.BulkLoadParallel(pairFeeder(n), 0.85, 4); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	tr.Abandon()

	tr2, err := New(Options{PageSize: 512, LogDevice: dev,
		Store: store, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	rs := tr2.RecoveryStats()
	if !rs.Recovered {
		t.Fatal("no recovery ran")
	}
	if rs.BulkChunksSkipped != 0 || rs.FullLogRead != "" || rs.RecordsScanned != 1 {
		t.Fatalf("%+v; want a restart at the load's checkpoint and no chunk skipped", rs)
	}
	if _, err := tr2.VerifyDeep(); err != nil {
		t.Fatalf("deep verify after recovery: %v", err)
	}
	if cnt, _ := tr2.Len(); cnt != n {
		t.Fatalf("recovered Len = %d, want %d", cnt, n)
	}
	for i := 0; i < n; i += 173 {
		got, err := tr2.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("recovered get %d: %q, %v", i, got, err)
		}
	}
}

// badFeeder yields good ascending entries, then one out-of-order key.
func badFeeder(good int) func() ([]byte, []byte, bool) {
	i := 0
	return func() ([]byte, []byte, bool) {
		if i < good {
			k, v := key(i), valb(i)
			i++
			return k, v, true
		}
		if i == good {
			i++
			return key(0), valb(0), true // out of order
		}
		return nil, nil, false
	}
}

// TestBulkLoadAbortedChunksSkippedOnRecovery fails a chunk-logged load
// after several chunk records are durable, then crashes. Recovery must skip
// every chunk of the committed-less session — the abandoned pages stay
// unallocated and invisible — and replay only the work after the failure.
func TestBulkLoadAbortedChunksSkippedOnRecovery(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		parallel := parallel
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			dev := wal.NewMemDevice()
			tr, err := New(Options{PageSize: 512, LogDevice: dev, BulkChunkPages: 2,
				Store: storage.NewMemStore(512), Workers: WorkersNone})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoadParallel(badFeeder(400), 0.85, parallel); err == nil {
				t.Fatal("unsorted bulk load accepted")
			}
			// The failed load must leave a usable tree; this put is the only
			// durable record.
			if err := tr.Put(key(7), valb(7)); err != nil {
				t.Fatal(err)
			}
			if err := tr.FlushLog(); err != nil {
				t.Fatal(err)
			}
			dev.Crash()
			tr.Abandon()

			tr2, err := New(Options{PageSize: 512, LogDevice: dev,
				Store: storage.NewMemStore(512), Workers: WorkersNone})
			if err != nil {
				t.Fatal(err)
			}
			defer tr2.Close()
			rs := tr2.RecoveryStats()
			if rs.BulkChunksSkipped == 0 {
				t.Fatal("no chunk records skipped — the aborted session left no durable chunks?")
			}
			if _, err := tr2.VerifyDeep(); err != nil {
				t.Fatalf("deep verify after recovery: %v", err)
			}
			if cnt, _ := tr2.Len(); cnt != 1 {
				t.Fatalf("recovered Len = %d, want 1", cnt)
			}
			if got, err := tr2.Get(key(7)); err != nil || !bytes.Equal(got, valb(7)) {
				t.Fatalf("recovered get: %q, %v", got, err)
			}
		})
	}
}

// TestBulkLoadTinyCachePins checks the chunk-size clamp: a parallel load
// through a pool far smaller than the tree must stream without exhausting
// pins.
func TestBulkLoadTinyCachePins(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, CacheSize: 16})
	const n = 20000
	if err := tr.BulkLoadParallel(pairFeeder(n), 0.85, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
	if cnt, _ := tr.Len(); cnt != n {
		t.Fatalf("Len = %d", cnt)
	}
}
