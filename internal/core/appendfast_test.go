package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// TestAppendFastPathMonotonic loads strictly increasing keys and requires
// the right-edge fast path to serve the bulk of them, with contents and
// invariants intact. A scattering of non-append keys must fall back cleanly.
func TestAppendFastPathMonotonic(t *testing.T) {
	tr, err := New(Options{
		PageSize:  1024,
		Workers:   WorkersNone,
		LogDevice: wal.NewMemDevice(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("seq%08d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		// Every 50th insert lands below the right edge and must traverse.
		if i%50 == 0 {
			if err := tr.Put([]byte(fmt.Sprintf("aaa%08d", i)), []byte("w")); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := tr.Stats()
	if s.AppendFastHits < n/2 {
		t.Fatalf("append fast path hits %d of %d monotonic inserts", s.AppendFastHits, n)
	}
	tr.DrainTodo()
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	recs, err := tr.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n+n/50 {
		t.Fatalf("record count %d, want %d", len(recs), n+n/50)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(recs[fmt.Sprintf("seq%08d", i)], []byte("v")) {
			t.Fatalf("missing or wrong record seq%08d", i)
		}
	}
}

// TestWithoutAppendFastDescends: the test seam that turns the fast path off
// leaves every monotonic insert to the descent — no hint, no attempt.
func TestWithoutAppendFastDescends(t *testing.T) {
	tr := newTestTree(t, Options{})
	withoutAppendFast(tr)
	for i := 0; i < 500; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := tr.Stats(); s.AppendFastHits+s.AppendFastMisses != 0 || tr.rightEdge.Load() != nil {
		t.Fatalf("fast path used with the seam set: %d hits, %d misses", s.AppendFastHits, s.AppendFastMisses)
	}
	mustVerify(t, tr)
}

// TestAppendFastPathConcurrent interleaves monotonic appenders with random
// writers and deleters under -race: the hint may go stale at any moment
// (splits move the right edge, consolidations kill leaves) and every miss
// must fall back without losing an operation.
func TestAppendFastPathConcurrent(t *testing.T) {
	tr, err := New(Options{
		PageSize:  1024,
		Workers:   2,
		MinFill:   0.35,
		LogDevice: wal.NewMemDevice(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	const goroutines = 6
	const perG = 500
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var err error
				if g%2 == 0 {
					// Appenders: per-goroutine increasing tails.
					err = tr.Put([]byte(fmt.Sprintf("tail%06d-%02d", i, g)), []byte("a"))
				} else {
					// Churners: scattered writes and deletes.
					k := []byte(fmt.Sprintf("mid%02d-%06d", g, (i*7)%200))
					if i%3 == 2 {
						if derr := tr.Delete(k); derr != nil && derr != ErrKeyNotFound {
							err = derr
						}
					} else {
						err = tr.Put(k, []byte("b"))
					}
				}
				if err != nil {
					errCh <- fmt.Errorf("g%d op %d: %w", g, i, err)
					return
				}
			}
			errCh <- nil
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	// Every appended tail key must be present exactly as written.
	for g := 0; g < goroutines; g += 2 {
		for i := 0; i < perG; i += 97 {
			if _, err := tr.Get([]byte(fmt.Sprintf("tail%06d-%02d", i, g))); err != nil {
				t.Fatalf("tail%06d-%02d lost: %v", i, g, err)
			}
		}
	}
}

// hookObserver runs a callback once the log has encoded the next record —
// under the log's append mutex, so in the middle of whatever structure
// modification is being logged. (The device sees records only at a force.)
type hookObserver struct{ onAppend func() }

func (o *hookObserver) LogAppend(time.Duration) {
	if f := o.onAppend; f != nil {
		o.onAppend = nil
		f()
	}
}

func (o *hookObserver) LogFlush(time.Duration) {}

// TestAppendFastPathHintOnPageReusedBySplit: the hint names a page ID, and
// page IDs are reused. When the rightmost leaf is consolidated away and the
// split of the new rightmost leaf draws the same ID for its right half, an
// append arriving in the middle of that split finds, under the hinted ID, a
// live rightmost leaf that covers its key — and that nobody else can reach
// yet, so nobody would hold its latch. The split keeps the new node latched
// from birth; the append must miss and go round, not write into a node that
// is still being logged (found as a data race by the hot-key stress test).
func TestAppendFastPathHintOnPageReusedBySplit(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4, LogDevice: wal.NewMemDevice()})
	hook := &hookObserver{}
	tr.log.SetObserver(hook)
	i := 0
	for ; tr.Stats().Splits < 3; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	edge, _ := tr.NodeSnapshot(leaves[len(leaves)-1])
	left, _ := tr.NodeSnapshot(leaves[len(leaves)-2])
	if h := tr.rightEdge.Load(); h == nil || h.id != edge.ID {
		t.Fatalf("hint %+v does not name the rightmost leaf %d", h, edge.ID)
	}
	// Fill the left neighbour until no further record fits, then empty the
	// rightmost leaf: it is consolidated into the neighbour, its page freed,
	// and the hint goes stale.
	pad := func(n int) []byte { return append(append([]byte(nil), left.Keys[0]...), fmt.Sprintf("~%03d", n)...) }
	need := page.EntrySize(page.Leaf, len(pad(0)), len(valb(0)))
	n := 0
	for ; ; n++ {
		if cur, _ := tr.NodeSnapshot(left.ID); cur.Size+need > tr.opts.PageSize {
			break
		}
		if err := tr.Put(pad(n), valb(0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range edge.Keys {
		if err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if tr.Stats().LeafConsolidated != 1 {
		t.Fatalf("%d leaf consolidations, want 1", tr.Stats().LeafConsolidated)
	}
	if h := tr.rightEdge.Load(); h == nil || h.id != edge.ID {
		t.Fatalf("hint %+v should still name the freed page %d", h, edge.ID)
	}

	// The next record splits the neighbour — it must: a record that fitted
	// would refresh the hint. It is not append-shaped, so it does not consult
	// the hint either. While the split is being logged, an append arrives.
	before := tr.Stats()
	done := make(chan error, 1)
	var during Stats
	hook.onAppend = func() {
		if h := tr.rightEdge.Load(); h == nil || h.id != edge.ID || tr.Stats().Splits != before.Splits {
			t.Errorf("the hook did not fire inside the first split, with the stale hint in place (hint %+v)", h)
		}
		go func() { done <- tr.Put(key(i+1000), valb(0)) }()
		for deadline := time.Now().Add(10 * time.Second); ; {
			during = tr.Stats()
			if during.AppendFastHits+during.AppendFastMisses != before.AppendFastHits+before.AppendFastMisses {
				return
			}
			if time.Now().After(deadline) {
				t.Error("the append never tried the fast path")
				return
			}
			runtime.Gosched()
		}
	}
	merged, _ := tr.NodeSnapshot(left.ID)
	if err := tr.Put(pad(n), make([]byte, tr.opts.PageSize-merged.Size)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if right, _ := tr.NodeSnapshot(edge.ID); right.High != nil || right.Right != 0 {
		t.Fatalf("page %d was not reused as the split's right half: %+v", edge.ID, right)
	}
	if during.AppendFastHits != before.AppendFastHits {
		t.Fatal("the append wrote into the split's new node while it was being logged")
	}
	mustVerify(t, tr)
	if _, err := tr.Get(key(i + 1000)); err != nil {
		t.Fatalf("appended record: %v", err)
	}
}
