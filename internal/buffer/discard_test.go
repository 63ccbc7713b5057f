package buffer

import (
	"errors"
	"testing"

	"blinktree/internal/storage"
)

func TestDiscardIfUnpinned(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	id := allocObj(t, p, store, 1)

	// Pinned: refused, release not called.
	if _, err := p.Fetch(id); err != nil {
		t.Fatal(err)
	}
	called := false
	ok, err := p.DiscardIfUnpinned(id, func() error { called = true; return nil })
	if err != nil || ok {
		t.Fatalf("discard of pinned page: ok=%v err=%v", ok, err)
	}
	if called {
		t.Fatal("release called for refused discard")
	}
	p.Unpin(id, false)

	// Unpinned: discarded and released atomically.
	ok, err = p.DiscardIfUnpinned(id, func() error { called = true; return store.Deallocate(id) })
	if err != nil || !ok {
		t.Fatalf("discard of unpinned page: ok=%v err=%v", ok, err)
	}
	if !called {
		t.Fatal("release not called")
	}
	if p.find(id) != nil {
		t.Fatal("frame survived discard")
	}
	if s := p.Snapshot(); s.WriteBacks != 0 {
		t.Fatalf("discard of a dirty page wrote it back: %+v", s)
	}
	// A later fetch must fail cleanly (page deallocated under the same
	// pool lock, so no stale reload is possible).
	if _, err := p.Fetch(id); !errors.Is(err, storage.ErrNotAllocated) {
		t.Fatalf("fetch after discard: %v", err)
	}

	// Non-resident page: trivially discarded, release still runs.
	id2, _ := store.Allocate()
	called = false
	ok, err = p.DiscardIfUnpinned(id2, func() error { called = true; return nil })
	if err != nil || !ok || !called {
		t.Fatalf("discard of non-resident page: ok=%v called=%v err=%v", ok, called, err)
	}

	// Nil release is allowed.
	id3 := allocObj(t, p, store, 2)
	if ok, err := p.DiscardIfUnpinned(id3, nil); err != nil || !ok {
		t.Fatalf("discard with nil release: ok=%v err=%v", ok, err)
	}

	// Release error propagates.
	id4 := allocObj(t, p, store, 3)
	wantErr := errors.New("boom")
	if ok, err := p.DiscardIfUnpinned(id4, func() error { return wantErr }); !ok || !errors.Is(err, wantErr) {
		t.Fatalf("release error: ok=%v err=%v", ok, err)
	}
}

func TestWriteBackMarshalError(t *testing.T) {
	store := storage.NewMemStore(128)
	p := NewPool(store, nil, &testCodec{}, 2)
	id, _ := store.Allocate()
	bad := &failingObj{}
	if err := p.Insert(id, bad); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, true)
	if err := p.FlushAll(); err == nil {
		t.Fatal("FlushAll with failing marshal succeeded")
	}
}

type failingObj struct{ testObj }

func (f *failingObj) Marshal(int) ([]byte, error) {
	return nil, errors.New("marshal failure")
}
