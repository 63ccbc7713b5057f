package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"blinktree/internal/latch"
	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// imageLog is a Store that remembers every image it hands out — the slice
// itself and a private copy — so a test can assert that nobody wrote through
// the views page.Unmarshal keeps into it.
type imageLog struct {
	storage.Store
	mu             sync.Mutex
	handed, copies [][]byte
}

func (s *imageLog) Read(id page.PageID) ([]byte, error) {
	buf, err := s.Store.Read(id)
	if err == nil {
		s.mu.Lock()
		s.handed = append(s.handed, buf)
		s.copies = append(s.copies, bytes.Clone(buf))
		s.mu.Unlock()
	}
	return buf, err
}

// check compares the images handed out with their copies: every one of them
// when all is set, the most recent 64 otherwise (a node decoded longer ago
// has usually left the tiny pool; the periodic full pass catches the slices
// that moved to another node first).
func (s *imageLog) check(t *testing.T, all bool) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	from := 0
	if !all && len(s.handed) > 64 {
		from = len(s.handed) - 64
	}
	for i := from; i < len(s.handed); i++ {
		if !bytes.Equal(s.handed[i], s.copies[i]) {
			t.Fatalf("page image %d of %d handed out by Read was written through", i, len(s.handed))
		}
	}
}

// TestDecodedImagesAreNeverWritten pins the ownership contract of
// page.Unmarshal from the tree's side. Decoded nodes keep views into their
// page images, and slice headers travel between nodes, into WAL records and
// route snapshots; that is safe only because every writer replaces a slot
// with a fresh allocation and never writes its bytes. The test drives the
// real writers — insertLeafAt, value overwrite, removeLeafAt,
// insertIndexTerm / removeIndexTermAt, split, consolidate, and recovery's
// record-operation redo — through a tree whose pool is so small that nodes are decoded
// over and over, against a shadow model, and checks after every step that no
// image Read ever handed out has changed.
func TestDecodedImagesAreNeverWritten(t *testing.T) {
	st := &imageLog{Store: storage.NewMemStore(256)}
	dev := wal.NewMemDevice()
	opts := Options{
		PageSize: 256, CacheSize: 12, MinFill: 0.4,
		Workers: WorkersNone, Store: st, LogDevice: dev,
	}
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string][]byte{}
	agree := func(tr *Tree) {
		t.Helper()
		n := 0
		err := tr.Scan(nil, nil, func(k, v []byte) bool {
			if want, ok := model[string(k)]; !ok || !bytes.Equal(v, want) {
				t.Fatalf("scan: %q = %q, model has %q (present %v)", k, v, want, ok)
			}
			n++
			return true
		})
		if err != nil || n != len(model) {
			t.Fatalf("scan saw %d records, model has %d (%v)", n, len(model), err)
		}
	}

	rng := rand.New(rand.NewSource(13))
	for step := 0; step < 6000; step++ {
		k := key(rng.Intn(600))
		// Alternate growing and shrinking phases so leaves both split
		// and empty out.
		put := 7
		if step/1000%2 == 1 {
			put = 1
		}
		switch op := rng.Intn(10); {
		case op < put:
			v := make([]byte, 1+rng.Intn(40))
			rng.Read(v)
			if err := tr.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = v
		case op < 8:
			err := tr.Delete(k)
			if _, ok := model[string(k)]; ok != (err == nil) || (err != nil && !errors.Is(err, ErrKeyNotFound)) {
				t.Fatalf("delete %q: %v, model present %v", k, err, ok)
			}
			delete(model, string(k))
		default:
			got, err := tr.Get(k)
			if want, ok := model[string(k)]; ok != (err == nil) || !bytes.Equal(got, want) {
				t.Fatalf("get %q = %q, %v; model has %q (present %v)", k, got, err, want, ok)
			}
		}
		if step%16 == 0 {
			tr.DrainTodo() // index-term postings and consolidations
		}
		if step%500 == 0 {
			agree(tr)
		}
		st.check(t, step%500 == 0)
	}
	s := tr.Stats()
	if s.Splits == 0 || s.LeafConsolidated == 0 || s.PostsDone == 0 {
		t.Fatalf("workload did not exercise the SMOs: %d splits, %d posts, %d leaf consolidations",
			s.Splits, s.PostsDone, s.LeafConsolidated)
	}
	t.Logf("%d images decoded; %d splits, %d posts, %d leaf and %d index consolidations",
		len(st.handed), s.Splits, s.PostsDone, s.LeafConsolidated, s.IndexConsolidated)
	mustVerify(t, tr)

	// Crash with the log durable and only some pages written back:
	// redo decodes the stale pages into the pool and applies record
	// operations to the decoded nodes in place.
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
	if tr2.RecoveryStats().RecOpsRedone == 0 {
		t.Fatal("recovery redid no record operation")
	}
	agree(tr2)
	st.check(t, true)
}

// viewLog remembers key and value views leaves handed out, each with a
// private copy of its bytes.
type viewLog struct{ views, copies [][]byte }

// leaf records every key and value view of the leaf covering k.
func (l *viewLog) leaf(t *testing.T, tr *Tree, k []byte) {
	t.Helper()
	leaf, _, err := tr.traverseRead(traverseOpts{key: k, intent: latch.Shared, dx: tr.dx.v.Load()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range leaf.c.Recs.Len() {
		for _, v := range [][]byte{leaf.c.Recs.Key(i), leaf.c.Recs.Val(i)} {
			l.views, l.copies = append(l.views, v), append(l.copies, bytes.Clone(v))
		}
	}
	tr.unlatchUnpin(leaf, latch.Shared, false)
}

// all records the views of every leaf.
func (l *viewLog) all(t *testing.T, tr *Tree) {
	t.Helper()
	ids, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		info, err := tr.NodeSnapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		l.leaf(t, tr, info.Low)
	}
}

func (l *viewLog) check(t *testing.T) {
	t.Helper()
	for i, v := range l.views {
		if !bytes.Equal(v, l.copies[i]) {
			t.Fatalf("view %d of %d (%q, was %q) was rewritten", i, len(l.views), v, l.copies[i])
		}
	}
}

// TestLeafViewsAreNeverRewritten pins the write-once rule of node-owned leaf
// buffers (page.Records): a key or value slice a leaf hands out — to Get, a
// scan, the log, a split or a consolidation — stays valid and unchanged
// whatever the leaf does next. The first write copies a decoded image,
// later records go to the free tail, a delete drops a slot, a full tail
// compacts into a fresh buffer, split and consolidate copy into the
// receiving leaf's buffer, and redo edits decoded leaves the same way. The
// test records the views of the leaf each operation touched, and of every
// leaf now and then and after a crash recovery, and checks that none of
// them ever changes.
func TestLeafViewsAreNeverRewritten(t *testing.T) {
	dev := wal.NewMemDevice()
	opts := Options{
		PageSize: 256, CacheSize: 12, MinFill: 0.4,
		Workers: WorkersNone, Store: storage.NewMemStore(256), LogDevice: dev,
	}
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var views viewLog
	rng := rand.New(rand.NewSource(29))
	run := func(tr *Tree, steps int) {
		for step := 0; step < steps; step++ {
			k := key(rng.Intn(400))
			switch op := rng.Intn(10); {
			case op < 6-step/700%2*4: // growing and shrinking phases
				v := make([]byte, 1+rng.Intn(30))
				rng.Read(v)
				if err := tr.Put(k, v); err != nil {
					t.Fatal(err)
				}
			case op < 8:
				if err := tr.Delete(k); err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Fatal(err)
				}
			case op < 9:
				if _, err := tr.Get(k); err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Fatal(err)
				}
			default:
				if err := tr.Scan(k, nil, func(_, _ []byte) bool { return true }); err != nil {
					t.Fatal(err)
				}
			}
			views.leaf(t, tr, k)
			if step%16 == 0 {
				tr.DrainTodo()
			}
			if step%200 == 0 {
				views.all(t, tr)
				views.check(t)
			}
		}
		views.check(t)
	}
	run(tr, 3000)
	s := tr.Stats()
	if s.Splits == 0 || s.LeafConsolidated == 0 {
		t.Fatalf("workload did not exercise the SMOs: %d splits, %d leaf consolidations", s.Splits, s.LeafConsolidated)
	}
	mustVerify(t, tr)

	// Redo applies record operations to decoded leaves: record what it
	// left, then keep writing.
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
	if tr2.RecoveryStats().RecOpsRedone == 0 {
		t.Fatal("recovery redid no record operation")
	}
	views.all(t, tr2)
	run(tr2, 1500)
	mustVerify(t, tr2)
	t.Logf("%d views checked", len(views.views))
}
