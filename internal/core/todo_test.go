package core

import (
	"bytes"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"blinktree/internal/obs"
	"blinktree/internal/page"
)

func TestTodoDedup(t *testing.T) {
	tr := newTestTree(t, Options{})
	a := action{kind: actPost, origID: 1, newID: 2, dx: tr.DX()}
	tr.todo.enqueue(a)
	tr.todo.enqueue(a)
	tr.todo.enqueue(a)
	if got := tr.TodoLen(); got != 1 {
		t.Fatalf("queue length = %d, want 1 (deduplicated)", got)
	}
	if hits := tr.Stats().TodoDedupHits; hits != 2 {
		t.Fatalf("dedup hits = %d, want 2", hits)
	}
	// A different action is not deduplicated.
	tr.todo.enqueue(action{kind: actPost, origID: 1, newID: 3})
	if got := tr.TodoLen(); got != 2 {
		t.Fatalf("queue length = %d, want 2", got)
	}
}

func TestTodoDedupClearsAfterProcessing(t *testing.T) {
	tr := newTestTree(t, Options{})
	// A post whose parent hint is bogus simply aborts; afterwards the same
	// action may be enqueued again.
	a := action{kind: actPost, origID: 1, newID: 2, sep: []byte("x"),
		parent: ref{id: 999, epoch: 1}}
	tr.todo.enqueue(a)
	tr.DrainTodo()
	tr.todo.enqueue(a)
	if got := tr.TodoLen(); got != 1 {
		t.Fatalf("queue length after re-enqueue = %d, want 1", got)
	}
	tr.DrainTodo()
}

func TestTodoRequeueCapDrops(t *testing.T) {
	tr := newTestTree(t, Options{})
	a := action{kind: actPost, retries: maxActionRetries}
	tr.todo.requeue(a) // retries now exceeds the cap: dropped
	if got := tr.TodoLen(); got != 0 {
		t.Fatalf("over-retried action still queued: %d", got)
	}
}

func TestTodoKindString(t *testing.T) {
	cases := map[actionKind]string{
		actPost: "post", actDelete: "delete", actShrink: "shrink",
		actReclaim: "reclaim", actionKind(99): "action(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestTodoStopDiscardsQueue(t *testing.T) {
	tr, err := New(Options{Workers: WorkersNone})
	if err != nil {
		t.Fatal(err)
	}
	tr.todo.enqueue(action{kind: actPost, origID: 5, newID: 6})
	before := tr.TodoLen()
	tr.todo.stop()
	// enqueue and requeue after stop are no-ops.
	tr.todo.enqueue(action{kind: actPost, origID: 7, newID: 8})
	tr.todo.requeue(action{kind: actPost, origID: 9, newID: 10})
	if got := tr.TodoLen(); got != before {
		t.Fatalf("enqueue after stop changed queue length: %d -> %d", before, got)
	}
	tr.Close()
}

func TestTodoWorkersProcessInBackground(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, Workers: 2})
	for i := 0; i < 500; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Workers should drain the queue without an explicit DrainTodo.
	deadline := time.Now().Add(5 * time.Second)
	for tr.TodoLen() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("workers never drained the queue (%d left)", tr.TodoLen())
		}
		time.Sleep(time.Millisecond)
	}
	if tr.Stats().PostsDone == 0 {
		t.Fatal("workers processed nothing")
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTodoConcurrentEnqueueDrain(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, Workers: 2})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				tr.Put(key(g*300+i), valb(i))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			tr.DrainTodo()
		}
	}()
	wg.Wait()
	<-done
	mustVerify(t, tr)
}

func TestWriteFigureWalkthrough(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigureWalkthrough(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "Figure 2", "Figure 3", "Figure 4",
		"side traversal", "aborted",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("walkthrough missing %q:\n%s", want, out)
		}
	}
}

func TestTodoPostPendingDedupHit(t *testing.T) {
	tr := newTestTree(t, Options{})
	if tr.todo.postPending(3, 4) {
		t.Fatal("empty queue reports pending post")
	}
	tr.todo.enqueue(action{kind: actPost, origID: 3, newID: 4})
	if !tr.todo.postPending(3, 4) {
		t.Fatal("queued post not reported pending")
	}
	if hits := tr.Stats().TodoDedupHits; hits == 0 {
		t.Fatal("postPending hit not counted")
	}
	tr.todo.takeAll()
}

func TestTodoLevelOrdering(t *testing.T) {
	tr := newTestTree(t, Options{})
	// Enqueued worst order first: the index-node delete bumps D_X and would
	// void everything behind it, leaf work must wait for index repairs. Pops
	// go class by class, FIFO within a class.
	tr.todo.enqueue(action{kind: actDelete, level: 1, origID: 10})
	tr.todo.enqueue(action{kind: actDelete, level: 0, origID: 11})
	tr.todo.enqueue(action{kind: actReclaim, origID: 12})
	tr.todo.enqueue(action{kind: actPost, level: 0, origID: 13, newID: 14})
	tr.todo.enqueue(action{kind: actPost, level: 1, origID: 15, newID: 16})
	tr.todo.enqueue(action{kind: actShrink, origID: 17, level: 2})
	var order []page.PageID
	for {
		a, ok := tr.todo.tryPop()
		if !ok {
			break
		}
		order = append(order, a.origID)
		tr.todo.finish(a)
	}
	want := []page.PageID{15, 17, 11, 12, 13, 10}
	if !slices.Equal(order, want) {
		t.Fatalf("pop order %v, want %v (index posts and shrinks, then leaf work, index-node deletes last)", order, want)
	}
	if got := tr.TodoLen(); got != 0 {
		t.Fatalf("queue length after popping everything = %d", got)
	}
}

// TestTodoIndexDeleteRunsAfterLeafDeletes is the tree-level reproducer for
// the class order: an under-utilised index node is discovered by every
// descent before the under-utilised leaves below it, so its delete is always
// enqueued ahead of theirs — and it bumps D_X whether or not it then
// consolidates (here it never does: it is the root's leftmost child). Popped
// in discovery order it voids every leaf delete in the same drain.
func TestTodoIndexDeleteRunsAfterLeafDeletes(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	if h := tr.Height(); h != 2 {
		t.Fatalf("height = %d, want three levels", h)
	}
	root, err := tr.NodeSnapshot(tr.RootID())
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.NodeSnapshot(root.Children[0])
	if err != nil {
		t.Fatal(err)
	}
	const keep = 4
	if len(first.Children) <= keep {
		t.Fatalf("leftmost level-1 node has only %d children", len(first.Children))
	}
	below := func(fence []byte) int { // keys 0..below-1 sort under fence
		return sort.Search(n, func(i int) bool { return bytes.Compare(key(i), fence) >= 0 })
	}
	kept, end := below(first.Keys[keep]), below(first.High)

	// Empty every leaf of the subtree but the first four and let them
	// consolidate away: the level-1 node is left with four full leaves,
	// which puts it under MinFill.
	for i := kept; i < end; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 30 && len(first.Children) > keep; round++ {
		for i := kept; i < end; i += 5 {
			tr.Get(key(i))
		}
		tr.DrainTodo()
		if first, err = tr.NodeSnapshot(root.Children[0]); err != nil {
			t.Fatal(err)
		}
	}
	if len(first.Children) != keep {
		t.Fatalf("emptied leaves never consolidated: %d children left, want %d", len(first.Children), keep)
	}

	// Now empty the four leaves too, forget what the deletes queued, and
	// probe: each Get meets the index node first and its leaf second.
	for i := 0; i < kept; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.todo.takeAll()
	for i := 0; i < kept; i += 5 {
		tr.Get(key(i))
	}
	before := tr.Stats()
	tr.DrainTodo()
	after := tr.Stats()
	if after.DXIncrements == before.DXIncrements {
		t.Fatal("no index-node delete ran in the drain: the scenario was not built")
	}
	if after.LeafConsolidated == before.LeafConsolidated {
		t.Errorf("no leaf consolidated in a drain that held %d leaf deletes", keep)
	}
	if got := after.DeleteAbortDX - before.DeleteAbortDX; got != 0 {
		t.Errorf("%d deletes aborted on D_X: the index-node delete ran ahead of them", got)
	}
	mustVerify(t, tr)
}

func TestMaintainRacesPutDelete(t *testing.T) {
	// Maintain (DrainTodo) must be safe against concurrent writers; run
	// under -race this exercises the scheduler's synchronization.
	tr := newTestTree(t, Options{PageSize: 512, Workers: 2})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				k := key(g*250 + i)
				if err := tr.Put(k, valb(i)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					tr.Delete(k)
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var mwg sync.WaitGroup
	for d := 0; d < 2; d++ {
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tr.DrainTodo()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	mwg.Wait()
	mustVerify(t, tr)
}

func TestDrainBailoutOnPerpetualRequeue(t *testing.T) {
	tr := newTestTree(t, Options{})
	// A page pinned by a "concurrent reader" makes every reclaim attempt
	// requeue; drain must bail out (counted) instead of spinning forever.
	n, err := tr.allocNode(page.Content{Kind: page.Leaf, Low: []byte{}})
	if err != nil {
		t.Fatal(err)
	} // n stays pinned
	tr.todo.drainSpinLimit = 50
	tr.todo.enqueue(action{kind: actReclaim, origID: n.id})
	done := make(chan struct{})
	go func() {
		tr.DrainTodo()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not bail out on a perpetually-requeuing action")
	}
	if got := tr.Stats().DrainBailouts; got != 1 {
		t.Fatalf("DrainBailouts = %d, want 1", got)
	}
	if tr.Stats().ReclaimRetry == 0 {
		t.Fatal("reclaim retries not counted")
	}
	// Unpinning the page lets the still-queued reclaim complete.
	tr.unpin(n)
	tr.DrainTodo()
	if got := tr.TodoLen(); got != 0 {
		t.Fatalf("queue not empty after unpin+drain: %d", got)
	}
}

// TestTodoQueueHighWater: Stats.TodoQueueHighWater is the deepest the queue
// has been, and a drain does not lower it.
func TestTodoQueueHighWater(t *testing.T) {
	tr := newTestTree(t, Options{})
	deepest := 0
	for i := 0; i < 600; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
		deepest = max(deepest, tr.TodoLen())
	}
	hw := tr.Stats().TodoQueueHighWater
	if deepest == 0 || hw != uint64(deepest) {
		t.Fatalf("high-water mark %d, deepest queue seen %d", hw, deepest)
	}
	tr.DrainTodo()
	if s := tr.Stats(); s.TodoQueueHighWater != hw || s.TodoProcessed == 0 {
		t.Fatalf("after drain: high-water mark %d (was %d), %d processed", s.TodoQueueHighWater, hw, s.TodoProcessed)
	}
}

// TestTraceEventOrdering runs a concurrent insert/delete workload with the
// trace ring enabled and checks the SMO lifecycle invariant: every terminal
// event (completed or any abort/skip) for an action is preceded by a started
// event for the same action kind and origin page, and sequence numbers are
// strictly increasing.
func TestTraceEventOrdering(t *testing.T) {
	if !obs.Compiled {
		t.Skip("observability compiled out (obsoff)")
	}
	tr := newTestTree(t, Options{
		PageSize: 512, Workers: 2,
		Observability: &obs.Config{Metrics: true, Trace: true, TraceCapacity: 1 << 16},
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := key(g*300 + i)
				if err := tr.Put(k, valb(i)); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					tr.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	tr.DrainTodo()

	snap := tr.Registry().Snapshot()
	if snap.TraceDropped != 0 {
		t.Fatalf("ring dropped %d events; raise TraceCapacity", snap.TraceDropped)
	}
	events := tr.TraceEvents()
	if len(events) == 0 {
		t.Fatal("no trace events from a splitting workload")
	}

	type akey struct {
		act  obs.Action
		page uint64
	}
	started := map[akey]int{}
	terminal := map[akey]int{}
	var sawStarted, sawCompleted bool
	for i, e := range events {
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("event %d: seq %d not after %d", i, e.Seq, events[i-1].Seq)
		}
		k := akey{e.Action, e.Page}
		switch e.Kind {
		case obs.EvStarted:
			sawStarted = true
			started[k]++
		case obs.EvCompleted, obs.EvAbortDX, obs.EvAbortDD, obs.EvAbortIdentity,
			obs.EvAbortEdge, obs.EvSkipFit:
			if e.Kind == obs.EvCompleted {
				sawCompleted = true
			}
			terminal[k]++
			if started[k] < terminal[k] {
				t.Fatalf("event %d: %s for %s page %d with no preceding started",
					i, e.Kind, e.Action, e.Page)
			}
		}
	}
	if !sawStarted || !sawCompleted {
		t.Fatalf("lifecycle kinds missing: started=%v completed=%v", sawStarted, sawCompleted)
	}
	mustVerify(t, tr)
}

// takePostWithParent inserts until the to-do queue holds a post action whose
// remembered parent is a real node (not the root-grow special case), then
// pops and returns it.
func takePostWithParent(t *testing.T, tr *Tree) action {
	t.Helper()
	for i := 0; i < 50_000; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			tr.DrainTodo() // grow the tree so later splits have real parents
		}
		for _, a := range tr.todo.takeAll() {
			if a.kind == actPost && a.parent.id != 0 {
				return a
			}
			tr.processAction(a)
		}
	}
	t.Fatal("no post action with a real parent appeared")
	return action{}
}

// TestTraceAbortCarriesDXValues forces a D_X abort deterministically and
// checks the event records both the remembered and the observed counter.
func TestTraceAbortCarriesDXValues(t *testing.T) {
	if !obs.Compiled {
		t.Skip("observability compiled out (obsoff)")
	}
	tr := newTestTree(t, Options{
		PageSize: 512, Workers: WorkersNone,
		Observability: &obs.Config{Trace: true, TraceCapacity: 1 << 16},
	})
	a := takePostWithParent(t, tr)
	a.dx += 7 // stale remembered D_X: access parent must abandon at step 2
	tr.processAction(a)

	events := tr.TraceEvents()
	var ev *obs.Event
	for i := range events {
		if events[i].Kind == obs.EvAbortDX && events[i].Page == uint64(a.origID) {
			ev = &events[i]
		}
	}
	if ev == nil {
		t.Fatal("no abort-dx event recorded")
	}
	if ev.DXWant != a.dx {
		t.Errorf("DXWant = %d, want %d", ev.DXWant, a.dx)
	}
	if ev.DXSeen != tr.DX() {
		t.Errorf("DXSeen = %d, want observed %d", ev.DXSeen, tr.DX())
	}
	if ev.DXWant == ev.DXSeen {
		t.Error("abort event shows no delete-state change")
	}
	if got := tr.Stats().PostsAbortDX; got != 1 {
		t.Errorf("PostsAbortDX = %d, want 1", got)
	}
}

// TestTraceAbortCarriesDDValues forces a D_D abort (leaf-level post against
// a parent whose data-delete state moved) and checks the recorded values.
func TestTraceAbortCarriesDDValues(t *testing.T) {
	if !obs.Compiled {
		t.Skip("observability compiled out (obsoff)")
	}
	tr := newTestTree(t, Options{
		PageSize: 512, Workers: WorkersNone,
		Observability: &obs.Config{Trace: true, TraceCapacity: 1 << 16},
	})
	a := takePostWithParent(t, tr)
	if a.level != 0 {
		t.Fatalf("expected a leaf-level post, got level %d", a.level)
	}
	a.dd += 3 // remembered D_D no longer matches the parent's counter
	tr.processAction(a)

	events := tr.TraceEvents()
	var ev *obs.Event
	for i := range events {
		if events[i].Kind == obs.EvAbortDD && events[i].Page == uint64(a.origID) {
			ev = &events[i]
		}
	}
	if ev == nil {
		t.Fatal("no abort-dd event recorded")
	}
	if ev.DDWant != a.dd {
		t.Errorf("DDWant = %d, want %d", ev.DDWant, a.dd)
	}
	if ev.DDSeen == ev.DDWant {
		t.Error("abort event shows no delete-state change")
	}
	if got := tr.Stats().PostsAbortDD; got != 1 {
		t.Errorf("PostsAbortDD = %d, want 1", got)
	}
}
