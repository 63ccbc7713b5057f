package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// syncHookStore runs a hook inside Store.Sync, which Checkpoint and BulkLoad
// call with the gate held exclusively.
type syncHookStore struct {
	storage.Store
	hook func()
}

func (s *syncHookStore) Sync() error {
	s.hook()
	return s.Store.Sync()
}

// TestCheckpointGateQuiescesWriters: writers and a maintenance worker (which
// runs each action behind the gate) against concurrent Checkpoint and
// BulkLoad calls. Inside the exclusive section no operation is in flight
// (the drain policy counts them) and no stripe admits one; and it all
// finishes — a worker that took an action and then waited for the gate used
// to deadlock BulkLoad's drain.
func TestCheckpointGateQuiescesWriters(t *testing.T) {
	var tr *Tree
	var sections atomic.Int64
	store := &syncHookStore{Store: storage.NewMemStore(512)}
	store.hook = func() {
		if tr == nil || tr.closed.Load() {
			return // format, Close
		}
		sections.Add(1)
		if n := tr.opsActive.Load(); n != 0 {
			t.Errorf("%d operations in flight inside the exclusive section", n)
		}
		for i := range tr.gate {
			if tr.gate[i].TryRLock() {
				tr.gate[i].RUnlock()
				t.Errorf("stripe %d admits an operation during the exclusive section", i)
			}
		}
	}
	tr = newTestTree(t, Options{
		PageSize: 512, Store: store, LogDevice: wal.NewMemDevice(),
		Workers: 1, MinFill: 0.4, DeletePolicy: Drain,
	})
	round := func(seed int) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(seed*8 + w)))
				for i := 0; i < 600; i++ {
					k := key(seed*400 + rng.Intn(400)) // fresh keys each round: splits go on
					var err error
					if rng.Intn(3) == 0 {
						if err = tr.Delete(k); errors.Is(err, ErrKeyNotFound) {
							err = nil
						}
					} else {
						err = tr.Put(k, valb(i))
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := tr.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				// Takes the whole gate and drains the queue before it finds
				// the tree occupied.
				err := tr.BulkLoad(func() ([]byte, []byte, bool) { return nil, nil, false }, 0)
				if err != nil && !errors.Is(err, ErrNotEmpty) {
					t.Errorf("bulk load: %v", err)
					return
				}
			}
		}()
		wg.Wait()
	}
	for seed := 0; seed < 3 && !t.Failed(); seed++ {
		round(seed)
	}
	if tr.Stats().TodoProcessed == 0 {
		t.Fatal("the worker ran no action; the test needs them behind the gate")
	}
	if sections.Load() < 20 {
		t.Fatalf("only %d exclusive sections observed", sections.Load())
	}
	mustVerify(t, tr)
}

// TestGetAllocs: Get allocates the returned value and nothing else; GetInto
// with room allocates nothing; Has copies nothing.
func TestGetAllocs(t *testing.T) {
	tr := newTestTree(t, Options{})
	for i := 0; i < 2000; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()
	k, buf := key(1234), make([]byte, 0, 64)
	for name, c := range map[string]struct {
		max float64
		fn  func()
	}{
		"Get":     {1, func() { tr.Get(k) }},
		"GetInto": {0, func() { tr.GetInto(buf, k) }},
		"Has":     {0, func() { tr.Has(k) }},
	} {
		if n := testing.AllocsPerRun(200, c.fn); n > c.max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", name, n, c.max)
		}
	}
	if got, _ := tr.GetInto([]byte("x"), k); string(got) != "x"+string(valb(1234)) {
		t.Fatalf("GetInto appended %q", got)
	}
	if got, err := tr.GetInto([]byte("x"), key(99999)); string(got) != "x" || !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("GetInto of a missing key = %q, %v", got, err)
	}
}
