package core

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// TestAllocFailureDuringSplit: an allocation failure mid-split must surface
// as an error from Put and leave the tree structurally intact.
func TestAllocFailureDuringSplit(t *testing.T) {
	fs := storage.NewFaultyStore(storage.NewMemStore(512))
	tr, err := New(Options{PageSize: 512, Store: fs, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Fill until just before a split.
	i := 0
	for tr.Stats().Splits == 0 {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	before, _ := tr.Len()
	// Fail the NEXT allocation, then force another split.
	fs.FailNextAllocs(1)
	var perr error
	j := 0
	for perr == nil && j < 200 {
		perr = tr.Put(key(10000+j), valb(j))
		j++
	}
	if perr == nil {
		t.Fatal("no Put failed despite injected allocation fault")
	}
	if !errors.Is(perr, storage.ErrInjected) {
		t.Fatalf("error = %v, want injected", perr)
	}
	// Recovery of service: subsequent operations succeed, the tree
	// verifies, and the pre-failure records are intact.
	if err := tr.Put(key(20000), valb(1)); err != nil {
		t.Fatalf("put after fault cleared: %v", err)
	}
	mustVerify(t, tr)
	after, _ := tr.Len()
	if after < before {
		t.Fatalf("records lost: %d -> %d", before, after)
	}
	for k := 0; k < i; k++ {
		got, err := tr.Get(key(k))
		if err != nil || !bytes.Equal(got, valb(k)) {
			t.Fatalf("pre-fault record %d: %q, %v", k, got, err)
		}
	}
}

// TestWriteFailureDuringEviction: with a tiny cache, write-back failures
// surface as operation errors; once the fault clears, everything works and
// no committed data is lost.
func TestWriteFailureDuringEviction(t *testing.T) {
	fs := storage.NewFaultyStore(storage.NewMemStore(512))
	tr, err := New(Options{PageSize: 512, Store: fs, CacheSize: 8, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 400
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.SetFailWrites(true)
	sawError := false
	for i := n; i < n+300; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			sawError = true
			break
		}
	}
	fs.SetFailWrites(false)
	if !sawError {
		t.Log("note: no eviction write-back needed during the fault window")
	}
	// Service restored.
	if err := tr.Put(key(99999), valb(1)); err != nil {
		t.Fatalf("put after fault cleared: %v", err)
	}
	mustVerify(t, tr)
	for i := 0; i < n; i++ {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatalf("record %d lost: %v", i, err)
		}
	}
}

// TestReadFailureSurfaces: a read fault makes operations fail cleanly, and
// clearing it restores service.
func TestReadFailureSurfaces(t *testing.T) {
	fs := storage.NewFaultyStore(storage.NewMemStore(512))
	tr, err := New(Options{PageSize: 512, Store: fs, CacheSize: 4, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 300; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	fs.SetFailReads(true)
	// With a 4-frame cache most lookups need a read.
	sawError := false
	for i := 0; i < 300 && !sawError; i += 17 {
		if _, err := tr.Get(key(i)); err != nil && !errors.Is(err, ErrKeyNotFound) {
			sawError = true
		}
	}
	fs.SetFailReads(false)
	if !sawError {
		t.Skip("everything stayed cached; read fault not exercised")
	}
	for i := 0; i < 300; i++ {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatalf("get %d after fault cleared: %v", i, err)
		}
	}
	mustVerify(t, tr)
}

// fullLogDevice is a log device whose writes fail once full is set, as
// they do on a full disk.
type fullLogDevice struct {
	*wal.MemDevice
	full atomic.Bool
}

var errDiskFull = errors.New("fullLogDevice: no space left on device")

func (d *fullLogDevice) Append(run []byte) error {
	if d.full.Load() {
		return errDiskFull
	}
	return d.MemDevice.Append(run)
}

// TestLogWriteFailureIsFailStop: when the log device stops taking writes,
// the force that finds out — a sync commit's own, or under periodic the
// log-writer's or FlushLog's — returns wal.ErrLogFailed wrapping the cause,
// and so does every later Put, Begin, Commit and FlushLog. Nothing panics,
// and nothing more reaches the device.
func TestLogWriteFailureIsFailStop(t *testing.T) {
	for _, mode := range []wal.DurabilityMode{wal.DurSync, wal.DurPeriodic} {
		dev := &fullLogDevice{MemDevice: wal.NewMemDevice()}
		tr := newTestTree(t, Options{LogDevice: dev, Durability: mode, FlushInterval: time.Millisecond})
		if err := tr.Put(key(1), valb(1)); err != nil {
			t.Fatal(err)
		}
		if err := tr.FlushLog(); err != nil {
			t.Fatal(err)
		}
		dev.full.Store(true)
		var first error
		if mode == wal.DurSync {
			x, err := tr.Begin()
			if err == nil {
				err = x.Put(key(2), valb(2))
			}
			if err != nil {
				t.Fatal(err)
			}
			first = x.Commit()
		} else {
			if err := tr.Put(key(2), valb(2)); err != nil && !errors.Is(err, wal.ErrLogFailed) {
				t.Fatal(err)
			}
			first = tr.FlushLog()
		}
		if !errors.Is(first, wal.ErrLogFailed) || !errors.Is(first, errDiskFull) {
			t.Fatalf("%s: the force that hit the full device returned %v", mode, first)
		}
		_, beginErr := tr.Begin()
		for what, err := range map[string]error{"put": tr.Put(key(3), valb(3)), "begin": beginErr, "flush": tr.FlushLog()} {
			if !errors.Is(err, wal.ErrLogFailed) || !errors.Is(err, errDiskFull) {
				t.Fatalf("%s: %s after the failure returned %v", mode, what, err)
			}
		}
		durable, _ := dev.ReadDurable()
		time.Sleep(10 * time.Millisecond) // the periodic log-writer ticks meanwhile
		if again, _ := dev.ReadDurable(); len(again) != len(durable) {
			t.Fatalf("%s: the device took %d more frames after the failure", mode, len(again)-len(durable))
		}
	}
}

// TestBulkLoadAllocFailureCleansUp: an allocation fault mid-bulk-load frees
// everything built so far.
func TestBulkLoadAllocFailureCleansUp(t *testing.T) {
	fs := storage.NewFaultyStore(storage.NewMemStore(512))
	tr, err := New(Options{PageSize: 512, Store: fs, Workers: WorkersNone, BulkChunkPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Fail the 5th allocation, inside the third two-leaf lease: several
	// leaves exist by then.
	i := 0
	fs.FailNextAllocs(5)
	err = tr.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= 3000 {
			return nil, nil, false
		}
		k := key(i)
		i++
		return k, valb(i), true
	}, 0.9)
	if err == nil {
		t.Fatal("bulk load survived injected allocation fault")
	}
	if live := tr.StoreStats().LivePages; live != 1 {
		t.Fatalf("live pages after failed bulk load = %d, want 1 (the root)", live)
	}
	// The tree still works.
	if err := tr.Put(key(1), valb(1)); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, tr)
}

// reissueStore forces the interleaving behind "buffer: Insert of resident
// page N" (benchmark/README.md, Findings). It keeps a freed page's last image
// readable when the allocator hands the id out again, and runs afterAlloc
// between that Allocate and the caller's pool.Insert — the instant in which a
// latch-free descent holding a stale route can fetch the id.
type reissueStore struct {
	storage.Store
	mu         sync.Mutex // guards images: bulk-load builders write concurrently
	images     map[page.PageID][]byte
	afterAlloc func(page.PageID)
}

func (s *reissueStore) Write(id page.PageID, buf []byte) error {
	s.mu.Lock()
	s.images[id] = append([]byte(nil), buf...)
	s.mu.Unlock()
	return s.Store.Write(id, buf)
}

func (s *reissueStore) Allocate() (page.PageID, error) {
	id, err := s.Store.Allocate()
	if err != nil {
		return id, err
	}
	s.mu.Lock()
	img, ok := s.images[id]
	s.mu.Unlock()
	if ok {
		if err := s.Store.Write(id, img); err != nil {
			return id, err
		}
	}
	if s.afterAlloc != nil {
		s.afterAlloc(id)
	}
	return id, nil
}

// TestSplitOverStaleFrame: a descent that fetched a just-consolidated leaf's
// page id after store.Allocate re-issued it, and backed off, leaves a frame
// for that id behind. The split that owns the id must still register its new
// node (the frame is stale by construction); before the fix its Insert
// failed, and so did every later split that drew the same id.
func TestSplitOverStaleFrame(t *testing.T) {
	rs := &reissueStore{Store: storage.NewMemStore(512), images: map[page.PageID][]byte{}}
	tr, err := New(Options{PageSize: 512, Store: rs, MinFill: 0.4, Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if err := tr.pool.FlushAll(); err != nil { // every leaf now has a store image
		t.Fatal(err)
	}
	// Empty the low half so its leaves are consolidated and their ids freed.
	for i := 0; i < n/2; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if tr.Stats().LeafConsolidated == 0 {
		t.Fatal("no leaf was consolidated; the test needs a freed page id")
	}

	stale := 0
	rs.afterAlloc = func(id page.PageID) {
		if nd, err := tr.fetch(id); err == nil { // the descent's fetch ...
			tr.unpin(nd) // ... and its back-off after failing validation
			stale++
		}
	}
	splits := tr.Stats().Splits
	for i := n; tr.Stats().Splits < splits+3; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatalf("put %d with a stale frame for the split's page: %v", i, err)
		}
	}
	if stale == 0 {
		t.Fatal("no re-issued id was fetched before its Insert; nothing was tested")
	}
	rs.afterAlloc = nil
	tr.DrainTodo()
	mustVerify(t, tr)
	for i := n / 2; i < n; i++ {
		if got, err := tr.Get(key(i)); err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("record %d after the splits: %q, %v", i, got, err)
		}
	}
}

// TestMaintenanceStopsOnLogFailure: a WorkersNone tree with 512-byte pages
// takes 400 Puts, leaving splits to post and a root to grow, and then its
// log device fails. FlushLog returns wal.ErrLogFailed, and the maintenance
// that follows abandons its structure modifications instead of panicking:
// DrainTodo and Close return the log's error, and the to-do queue is left
// as the failure found it.
func TestMaintenanceStopsOnLogFailure(t *testing.T) {
	dev := &fullLogDevice{MemDevice: wal.NewMemDevice()}
	tr := newTestTree(t, Options{PageSize: 512, Workers: WorkersNone, LogDevice: dev})
	for i := 0; i < 400; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.TodoLen() == 0 {
		t.Fatal("no maintenance queued: the failure would not be exercised")
	}
	dev.full.Store(true)
	if err := tr.FlushLog(); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("FlushLog on the failed device: %v", err)
	}
	if err := tr.DrainTodo(); !errors.Is(err, wal.ErrLogFailed) || !errors.Is(err, errDiskFull) {
		t.Fatalf("DrainTodo after the log failed: %v", err)
	}
	if err := tr.DrainTodo(); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("second DrainTodo: %v", err)
	}
	if tr.TodoLen() == 0 {
		t.Fatal("the maintenance ran on after the failure")
	}
	if err := tr.Close(); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("Close after the log failed: %v", err)
	}
}
