package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// crashEnv is a tree over a shared MemStore + MemDevice whose crash
// semantics we control: Crash() discards unsynced log records and simulates
// total loss of volatile state (the buffer pool's dirty pages, the to-do
// queue, delete state).
type crashEnv struct {
	dev *wal.MemDevice
}

// openLogged opens a (possibly recovered) tree over the env's log. Each
// open gets a FRESH page store populated only by recovery: that simulates
// the worst case where no data page made it to disk. For checkpoint tests
// use openLoggedSharedStore instead.
func (e *crashEnv) openLogged(t *testing.T, store storage.Store) *Tree {
	t.Helper()
	tr, err := New(Options{
		PageSize:  512,
		Store:     store,
		LogDevice: e.dev,
		Workers:   WorkersNone,
		MinFill:   0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRecoveryEmptyLogFormatsFresh(t *testing.T) {
	env := &crashEnv{dev: wal.NewMemDevice()}
	tr := env.openLogged(t, storage.NewMemStore(512))
	defer tr.Close()
	if err := tr.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryRedoCommitted(t *testing.T) {
	env := &crashEnv{dev: wal.NewMemDevice()}
	tr := env.openLogged(t, storage.NewMemStore(512))
	const n = 600
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	// Force the log durable, then crash without flushing any data page.
	if err := tr.log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	env.dev.Crash()
	tr.todo.stop() // abandon, simulating process death

	tr2 := env.openLogged(t, storage.NewMemStore(512))
	defer tr2.Close()
	if err := tr2.Verify(); err != nil {
		t.Fatalf("recovered tree ill-formed: %v", err)
	}
	for i := 0; i < n; i++ {
		got, err := tr2.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("recovered get %d: %q, %v", i, got, err)
		}
	}
	if cnt, _ := tr2.Len(); cnt != n {
		t.Fatalf("recovered Len = %d, want %d", cnt, n)
	}
}

func TestRecoveryMidSMOCrash(t *testing.T) {
	// Crash with many splits logged but index postings pending (the to-do
	// queue is volatile). Recovery must produce a well-formed tree; lost
	// postings are re-discovered by side traversals.
	env := &crashEnv{dev: wal.NewMemDevice()}
	tr := env.openLogged(t, storage.NewMemStore(512))
	const n = 800
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	// No drain: postings pending. Flush the log, crash.
	if err := tr.log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	env.dev.Crash()
	tr.todo.stop()

	tr2 := env.openLogged(t, storage.NewMemStore(512))
	defer tr2.Close()
	for i := 0; i < n; i++ {
		got, err := tr2.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("recovered get %d: %q, %v", i, got, err)
		}
	}
	if tr2.Stats().SideTraversals == 0 {
		t.Log("note: no side traversals needed after recovery (all terms were posted)")
	}
	mustVerify(t, tr2)
	// After draining re-discovered postings, the tree is fully repaired.
	if err := tr2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryLosesUnflushedTail(t *testing.T) {
	env := &crashEnv{dev: wal.NewMemDevice()}
	tr := env.openLogged(t, storage.NewMemStore(512))
	tr.Put([]byte("durable"), []byte("1"))
	tr.log.FlushAll()
	tr.Put([]byte("volatile"), []byte("2")) // not flushed
	env.dev.Crash()
	tr.todo.stop()

	tr2 := env.openLogged(t, storage.NewMemStore(512))
	defer tr2.Close()
	if _, err := tr2.Get([]byte("durable")); err != nil {
		t.Fatalf("durable record lost: %v", err)
	}
	if _, err := tr2.Get([]byte("volatile")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("unflushed record survived crash: %v", err)
	}
}

func TestRecoveryUndoesLoserTxn(t *testing.T) {
	env := &crashEnv{dev: wal.NewMemDevice()}
	tr := env.openLogged(t, storage.NewMemStore(512))
	// Committed baseline.
	x1, _ := tr.Begin()
	x1.Put([]byte("keep"), []byte("committed"))
	x1.Put([]byte("mod"), []byte("original"))
	if err := x1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Loser: updates, inserts and deletes, then crash before commit.
	x2, _ := tr.Begin()
	x2.Put([]byte("mod"), []byte("dirty"))
	x2.Put([]byte("new"), []byte("dirty"))
	x2.Delete([]byte("keep"))
	tr.log.FlushAll() // loser's records are durable, commit is not
	env.dev.Crash()
	tr.todo.stop()

	tr2 := env.openLogged(t, storage.NewMemStore(512))
	defer tr2.Close()
	if got, err := tr2.Get([]byte("keep")); err != nil || string(got) != "committed" {
		t.Fatalf("deleted-by-loser record: %q, %v", got, err)
	}
	if got, err := tr2.Get([]byte("mod")); err != nil || string(got) != "original" {
		t.Fatalf("updated-by-loser record: %q, %v", got, err)
	}
	if _, err := tr2.Get([]byte("new")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("loser insert survived: %v", err)
	}
	mustVerify(t, tr2)
}

// TestOldValOnlyWhereUndoReadsIt reads the log back: an autocommitted update
// or delete carries no old value, since no record of Txn 0 is ever undone,
// and neither do the CLRs of an abort. A transaction's own update and delete
// keep theirs, which loser undo (TestRecoveryUndoesLoserTxn) restores.
func TestOldValOnlyWhereUndoReadsIt(t *testing.T) {
	env := &crashEnv{dev: wal.NewMemDevice()}
	tr := env.openLogged(t, storage.NewMemStore(512))
	defer tr.Close()
	for _, k := range []string{"auto", "txn"} {
		if err := tr.Put([]byte(k), []byte("old-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Put([]byte("auto"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete([]byte("auto")); err != nil {
		t.Fatal(err)
	}
	x, _ := tr.Begin()
	if err := x.Put([]byte("txn"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete([]byte("txn")); err != nil {
		t.Fatal(err)
	}
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tr.log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, r := range durableRecords(t, env.dev) {
		if r.Type != wal.TRecOp || r.Op == wal.OpInsert || r.Op == 0 {
			continue
		}
		who := "auto"
		if r.Txn != 0 {
			who = "txn"
			if r.CLR {
				who = "clr"
			}
		}
		seen[fmt.Sprintf("%s %v", who, r.Op)] = string(r.OldVal)
	}
	want := map[string]string{
		fmt.Sprintf("auto %v", wal.OpUpdate): "",
		fmt.Sprintf("auto %v", wal.OpDelete): "",
		fmt.Sprintf("txn %v", wal.OpUpdate):  "old-txn",
		fmt.Sprintf("txn %v", wal.OpDelete):  "new",
		fmt.Sprintf("clr %v", wal.OpUpdate):  "",
	}
	for k, v := range want {
		if got, ok := seen[k]; !ok || got != v {
			t.Errorf("%s record: OldVal %q (logged %v), want %q", k, got, ok, v)
		}
	}
}

func TestRecoveryIdempotentDoubleCrash(t *testing.T) {
	// Crash, recover, crash again immediately (undo CLRs durable), recover
	// again: same final state.
	env := &crashEnv{dev: wal.NewMemDevice()}
	tr := env.openLogged(t, storage.NewMemStore(512))
	x, _ := tr.Begin()
	for i := 0; i < 50; i++ {
		x.Put(key(i), valb(i))
	}
	tr.log.FlushAll()
	env.dev.Crash()
	tr.todo.stop()

	tr2 := env.openLogged(t, storage.NewMemStore(512)) // undoes the loser
	tr2.log.FlushAll()
	env.dev.Crash() // crash right after recovery completes
	tr2.todo.stop()

	tr3 := env.openLogged(t, storage.NewMemStore(512))
	defer tr3.Close()
	if cnt, _ := tr3.Len(); cnt != 0 {
		t.Fatalf("after double crash Len = %d, want 0", cnt)
	}
	mustVerify(t, tr3)
}

// TestRedoEvictsRedoneLeaves replays a redo window over far more leaves than
// the pool has frames, so redo's own nodes are evicted between the records
// that change them. Each must leave redo as a dirty frame and reach the store
// by write-back: a leaf dropped clean would come back as the checkpoint's
// page, and the rounds redone on it would be lost.
func TestRedoEvictsRedoneLeaves(t *testing.T) {
	store, dev := storage.NewMemStore(512), wal.NewMemDevice()
	open := func(frames int) *Tree {
		tr, err := New(Options{
			PageSize: 512, CacheSize: frames, Workers: WorkersNone, MinFill: 0.4,
			Store: store, LogDevice: dev,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	val := func(round, i int) []byte { return []byte(fmt.Sprintf("r%d-%06d", round, i)) }
	const n, rounds = 2000, 3
	tr := open(0)
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Every round updates every leaf: the first logs each leaf's image, the
	// rest are record operations on it.
	for r := 1; r <= rounds; r++ {
		for i := 0; i < n; i++ {
			if err := tr.Put(key(i), val(r, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.FlushLog(); err != nil {
		t.Fatal(err)
	}
	tr.Abandon() // the store keeps the checkpoint's pages

	tr2 := open(8)
	defer tr2.Close()
	rs, ps := tr2.RecoveryStats(), tr2.PoolStats()
	if rs.RecOpsRedone < (rounds-1)*n || ps.WriteBacks == 0 {
		t.Fatalf("redo did %d record operations with %d write-backs; the window does not overflow the pool", rs.RecOpsRedone, ps.WriteBacks)
	}
	for i := 0; i < n; i++ {
		if got, err := tr2.Get(key(i)); err != nil || !bytes.Equal(got, val(rounds, i)) {
			t.Fatalf("key %d after redo: %q, %v; want %q", i, got, err, val(rounds, i))
		}
	}
	mustVerify(t, tr2)
}

func TestCheckpointBoundsRedo(t *testing.T) {
	env := &crashEnv{dev: wal.NewMemDevice()}
	store := storage.NewMemStore(512)
	tr := env.openLogged(t, store)
	const n = 400
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+100; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.log.FlushAll()
	env.dev.Crash()
	tr.todo.stop()

	// Reopen over the SAME store: the checkpoint flushed pages there, so
	// redo only needs the post-checkpoint suffix.
	tr2 := env.openLogged(t, store)
	defer tr2.Close()
	for i := 0; i < n+100; i++ {
		got, err := tr2.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("get %d after checkpointed recovery: %q, %v", i, got, err)
		}
	}
	mustVerify(t, tr2)
}

func TestCheckpointCarriesActiveTxn(t *testing.T) {
	env := &crashEnv{dev: wal.NewMemDevice()}
	store := storage.NewMemStore(512)
	tr := env.openLogged(t, store)
	x, _ := tr.Begin()
	x.Put([]byte("loser-key"), []byte("dirty"))
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash with the transaction's only record BEFORE the checkpoint: the
	// checkpoint's active-transaction list is what makes it a loser.
	tr.log.FlushAll()
	env.dev.Crash()
	tr.todo.stop()

	tr2 := env.openLogged(t, store)
	defer tr2.Close()
	if _, err := tr2.Get([]byte("loser-key")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("pre-checkpoint loser not undone: %v", err)
	}
}

func TestRecoveryWithConsolidations(t *testing.T) {
	env := &crashEnv{dev: wal.NewMemDevice()}
	tr := env.openLogged(t, storage.NewMemStore(512))
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	for i := 0; i < n; i++ {
		if i%7 != 0 {
			tr.Delete(key(i))
		}
	}
	tr.DrainTodo() // consolidations (and their SMO records) happen
	if tr.Stats().LeafConsolidated == 0 {
		t.Fatal("setup: no consolidations to recover")
	}
	tr.log.FlushAll()
	env.dev.Crash()
	tr.todo.stop()

	tr2 := env.openLogged(t, storage.NewMemStore(512))
	defer tr2.Close()
	mustVerify(t, tr2)
	for i := 0; i < n; i++ {
		got, err := tr2.Get(key(i))
		if i%7 == 0 {
			if err != nil || !bytes.Equal(got, valb(i)) {
				t.Fatalf("survivor %d: %q, %v", i, got, err)
			}
		} else if !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("deleted %d resurrected: %q, %v", i, got, err)
		}
	}
}

func TestRecoveryFileBacked(t *testing.T) {
	dir := t.TempDir()
	dev, err := wal.OpenFileDevice(dir + "/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.OpenFileStore(dir+"/pages.db", 512)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{PageSize: 512, Store: store, LogDevice: dev, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	dev.Close()

	dev2, err := wal.OpenFileDevice(dir + "/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	store2, err := storage.OpenFileStore(dir+"/pages.db", 512)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := New(Options{PageSize: 512, Store: store2, LogDevice: dev2, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	for i := 0; i < n; i++ {
		got, err := tr2.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("file-backed recovery get %d: %q, %v", i, got, err)
		}
	}
	mustVerify(t, tr2)
}

func TestTxnSeqResumesAboveRecovered(t *testing.T) {
	env := &crashEnv{dev: wal.NewMemDevice()}
	tr := env.openLogged(t, storage.NewMemStore(512))
	var lastID uint64
	for i := 0; i < 5; i++ {
		x, _ := tr.Begin()
		x.Put(key(i), valb(i))
		x.Commit()
		lastID = x.ID()
	}
	tr.log.FlushAll()
	env.dev.Crash()
	tr.todo.stop()

	tr2 := env.openLogged(t, storage.NewMemStore(512))
	defer tr2.Close()
	x, _ := tr2.Begin()
	defer x.Abort()
	if x.ID() <= lastID {
		t.Fatalf("txn ID %d not above recovered max %d", x.ID(), lastID)
	}
}

func TestRecoveryManyRandomCrashes(t *testing.T) {
	// Fuzz-style: run random work, crash at a random durable horizon,
	// recover, verify invariants and that committed == surviving.
	for trial := 0; trial < 5; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			env := &crashEnv{dev: wal.NewMemDevice()}
			tr := env.openLogged(t, storage.NewMemStore(512))
			committed := make(map[string][]byte)
			for round := 0; round < 10; round++ {
				x, _ := tr.Begin()
				local := make(map[string][]byte)
				for i := 0; i < 20; i++ {
					k := key((trial*1000 + round*20 + i) % 300)
					v := []byte(fmt.Sprintf("t%d-r%d-%d", trial, round, i))
					if err := x.Put(k, v); err != nil {
						t.Fatal(err)
					}
					local[string(k)] = v
				}
				if round%3 == 2 {
					x.Abort()
				} else {
					if err := x.Commit(); err != nil {
						t.Fatal(err)
					}
					for k, v := range local {
						committed[k] = v
					}
				}
			}
			// One loser in flight at crash time.
			x, _ := tr.Begin()
			x.Put([]byte("in-flight"), []byte("dirty"))
			tr.log.FlushAll()
			env.dev.Crash()
			tr.todo.stop()

			tr2 := env.openLogged(t, storage.NewMemStore(512))
			defer tr2.Close()
			mustVerify(t, tr2)
			got, err := tr2.Records()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(committed) {
				t.Fatalf("recovered %d records, want %d", len(got), len(committed))
			}
			for k, v := range committed {
				if !bytes.Equal(got[k], v) {
					t.Fatalf("key %q: got %q want %q", k, got[k], v)
				}
			}
		})
	}
}
