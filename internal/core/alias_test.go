package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blinktree/internal/latch"
	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// imageLog is a Store that remembers every image it reads — the buffer
// itself and a private copy — so a test can assert that nobody wrote through
// the views page.Unmarshal keeps into it, and that the pool reads into an
// image only when the rule allows it (DESIGN.md §4b): the buffer is one a
// read of this store filled, and its page saw no write since — a leaf that
// wrote was dirty, and eviction writes a dirty leaf back before it decides
// what becomes of the image.
type imageLog struct {
	storage.Store
	mu       sync.Mutex
	images   []*readImage
	byBuf    map[*byte]*readImage
	writes   map[page.PageID]int
	recycled int
	errs     []string
}

// readImage is one buffer a read filled: the page it holds, a copy of its
// bytes, and the page's write count when it was read.
type readImage struct {
	buf, copy []byte
	id        page.PageID
	writes    int
}

func newImageLog(s storage.Store) *imageLog {
	return &imageLog{Store: s, byBuf: map[*byte]*readImage{}, writes: map[page.PageID]int{}}
}

func (s *imageLog) Read(id page.PageID) ([]byte, error) {
	buf, err := s.Store.Read(id)
	if err == nil {
		s.mu.Lock()
		im := &readImage{buf: buf}
		s.images, s.byBuf[&buf[0]] = append(s.images, im), im
		s.filled(im, id)
		s.mu.Unlock()
	}
	return buf, err
}

func (s *imageLog) ReadInto(id page.PageID, buf []byte) error {
	s.mu.Lock()
	im := s.byBuf[&buf[0]]
	switch {
	case im == nil:
		s.errs = append(s.errs, fmt.Sprintf("read of page %d into a buffer no read filled", id))
	case !bytes.Equal(im.buf, im.copy):
		s.errs = append(s.errs, fmt.Sprintf("image of page %d written through before it was read into", im.id))
	case s.writes[im.id] != im.writes:
		s.errs = append(s.errs, fmt.Sprintf("image of page %d read into after its leaf wrote", im.id))
	}
	s.recycled++
	s.mu.Unlock()
	err := s.Store.(storage.PageReader).ReadInto(id, buf)
	if err == nil && im != nil {
		s.mu.Lock()
		s.filled(im, id)
		s.mu.Unlock()
	}
	return err
}

// filled notes that im now holds page id. Caller holds mu.
func (s *imageLog) filled(im *readImage, id page.PageID) {
	im.copy, im.id, im.writes = bytes.Clone(im.buf), id, s.writes[id]
}

func (s *imageLog) Write(id page.PageID, buf []byte) error {
	s.mu.Lock()
	s.writes[id]++
	s.mu.Unlock()
	return s.Store.Write(id, buf)
}

// check reports the rule violations ReadInto saw and compares images with
// their copies: every one of them when all is set, the most recent 64
// otherwise (a node decoded longer ago has usually left the tiny pool; the
// periodic full pass catches the slices that moved to another node first).
func (s *imageLog) check(t *testing.T, all bool) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.errs) > 0 {
		t.Fatal(s.errs[0])
	}
	from := 0
	if !all && len(s.images) > 64 {
		from = len(s.images) - 64
	}
	for i := from; i < len(s.images); i++ {
		if im := s.images[i]; !bytes.Equal(im.buf, im.copy) {
			t.Fatalf("page image %d of %d (page %d) was written through", i, len(s.images), im.id)
		}
	}
}

// TestDecodedImagesAreNeverWritten pins the ownership contract of
// page.Unmarshal from the tree's side. Decoded nodes keep views into their
// page images, and slice headers travel between nodes, into WAL records and
// route snapshots; that is safe only because every writer replaces a slot
// with a fresh allocation and never writes its bytes, and because the pool
// reads into an image only after its leaf was evicted untouched. The test
// drives the real writers — insertLeafAt, value overwrite, removeLeafAt,
// insertIndexTerm / removeIndexTermAt, split, consolidate, and recovery's
// record-operation and image redo — through a tree whose pool is so small
// that nodes are decoded over and over, against a shadow model. It checks
// after every step that no image was ever written but by a read into it,
// that such a read found its page unwritten since the image was read (so no
// image a leaf wrote from is ever rewritten), and that every buffer read
// into is one a read filled (so no log-record image redo installed is).
func TestDecodedImagesAreNeverWritten(t *testing.T) {
	st := newImageLog(storage.NewMemStore(256))
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
	if st.recycled == 0 {
		t.Fatal("the pool never read into an evicted leaf's image")
	}
	t.Logf("%d images read, %d reads into an evicted image; %d splits, %d posts, %d leaf and %d index consolidations",
		len(st.images), st.recycled, s.Splits, s.PostsDone, s.LeafConsolidated, s.IndexConsolidated)
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
	if rs := tr2.RecoveryStats(); rs.RecOpsRedone == 0 || rs.ImagesApplied == 0 {
		t.Fatalf("recovery redid %d record operations and installed %d images", rs.RecOpsRedone, rs.ImagesApplied)
	}
	agree(tr2)
	st.check(t, true)
	// Keep going on the recovered tree, whose pool holds the leaves redo
	// installed from log-record images.
	for i := 0; i < 2000; i++ {
		k := key(rng.Intn(600))
		var err error
		if i%3 == 0 {
			err = tr2.Delete(k)
			delete(model, string(k))
		} else {
			_, err = tr2.Get(k)
		}
		if err != nil && !errors.Is(err, ErrKeyNotFound) {
			t.Fatal(err)
		}
		st.check(t, i%500 == 0)
	}
	agree(tr2)
	st.check(t, true)
}

// viewLog remembers key and value views leaves handed out, each with a
// private copy of its bytes and, for a view of a leaf still reading its
// decoded image, that leaf.
type viewLog struct {
	views, copies [][]byte
	of            []*node
	recycled      int // views dropped after their image was read into
}

// leaf records every key and value view of the leaf covering k.
func (l *viewLog) leaf(t *testing.T, tr *Tree, k []byte) {
	t.Helper()
	leaf, _, err := tr.traverseRead(traverseOpts{key: k, intent: latch.Shared, dx: tr.dx.v.Load()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var of *node
	if leaf.c.Recs.Untouched() {
		of = leaf
	}
	for i := range leaf.c.Recs.Len() {
		for _, v := range [][]byte{leaf.c.Recs.Key(i), leaf.c.Recs.Val(i)} {
			l.views, l.copies = append(l.views, v), append(l.copies, bytes.Clone(v))
			l.of = append(l.of, of)
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

// check asserts that no view changed, with one exception: a view of an
// untouched image may change once its leaf left tr's pool still untouched
// and alive, because the pool may then read another page into the image. A
// changed view that qualifies is dropped; one that does not fails the test,
// so a view of a leaf that wrote, or of a leaf still resident, is checked
// for as long as the test runs.
func (l *viewLog) check(t *testing.T, tr *Tree) {
	t.Helper()
	for i := 0; i < len(l.views); i++ {
		if bytes.Equal(l.views[i], l.copies[i]) {
			continue
		}
		if n := l.of[i]; n == nil || n.dead || !n.c.Recs.Untouched() || resident(tr, n) {
			t.Fatalf("view %d of %d (%q, was %q) was rewritten", i, len(l.views), l.views[i], l.copies[i])
		}
		l.recycled++
		last := len(l.views) - 1
		l.views[i], l.copies[i], l.of[i] = l.views[last], l.copies[last], l.of[last]
		l.views, l.copies, l.of = l.views[:last], l.copies[:last], l.of[:last]
		i--
	}
}

// freeze checks the views and then makes every one recorded so far a view
// that may never change: tr reads no more pages.
func (l *viewLog) freeze(t *testing.T, tr *Tree) {
	t.Helper()
	l.check(t, tr)
	clear(l.of)
}

// resident reports whether n is the object tr's pool caches for its page.
func resident(tr *Tree, n *node) bool {
	obj, loaded, err := tr.pool.FetchMiss(n.id)
	if err != nil {
		return false
	}
	tr.pool.Unpin(n.id, false)
	return !loaded && obj.(*node) == n
}

// TestLeafViewsAreNeverRewritten pins the write-once rule of leaf buffers
// (page.Records): a key or value slice a leaf hands out — to Get, a scan,
// the log, a split or a consolidation — stays valid and unchanged whatever
// the leaf does next, once the leaf has written. The first write copies a
// decoded image, later records go to the free tail, a delete drops a slot, a
// full tail compacts into a fresh buffer, split and consolidate copy into
// the receiving leaf's buffer, and redo edits decoded leaves the same way. A
// view of an image no mutator has touched stays unchanged while its leaf
// stays resident; after the leaf is evicted untouched the pool may read
// another page into the image. The test records the views of the leaf each
// operation touched, and of every leaf now and then and after a crash
// recovery, and checks every one of them against that rule.
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
				views.check(t, tr)
			}
		}
		views.check(t, tr)
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
	views.freeze(t, tr)
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
	if views.recycled == 0 {
		t.Fatal("no view's image was ever read into")
	}
	t.Logf("%d views checked to the end, %d until their untouched leaf's image was read into", len(views.views), views.recycled)
}
