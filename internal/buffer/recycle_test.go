package buffer

import (
	"sync"
	"testing"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// imageObj is an Object that keeps the image it was decoded from, as a
// resident leaf does, and vouches for it while ok is set.
type imageObj struct {
	image []byte
	ok    bool
}

func (o *imageObj) PageLSN() wal.LSN              { return 0 }
func (o *imageObj) Marshal(n int) ([]byte, error) { return make([]byte, n), nil }
func (o *imageObj) Recyclable() bool              { return o.ok }

// imageCodec decodes every page into an imageObj that vouches when vouch is
// set; with reuse set it hands out that one object every time, so a decode
// allocates nothing.
type imageCodec struct {
	vouch bool
	reuse *imageObj
}

func (c *imageCodec) Unmarshal(b []byte) (Object, error) {
	if c.reuse != nil {
		*c.reuse = imageObj{image: b, ok: c.vouch}
		return c.reuse, nil
	}
	return &imageObj{image: b, ok: c.vouch}, nil
}

// intoLog is a MemStore that records every buffer the pool asks it to read
// into.
type intoLog struct {
	*storage.MemStore
	mu   sync.Mutex
	into [][]byte
}

func (s *intoLog) ReadInto(id page.PageID, buf []byte) error {
	s.mu.Lock()
	s.into = append(s.into, buf)
	s.mu.Unlock()
	return s.MemStore.ReadInto(id, buf)
}

// handed reports whether buf was ever given to ReadInto.
func (s *intoLog) handed(buf []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.into {
		if &b[0] == &buf[0] {
			return true
		}
	}
	return false
}

// pages allocates n store pages.
func pages(t *testing.T, s storage.Store, n int) []page.PageID {
	t.Helper()
	ids := make([]page.PageID, n)
	for i := range ids {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// fetch pins id and unpins it clean, returning the object.
func fetch(t *testing.T, p *Pool, id page.PageID) *imageObj {
	t.Helper()
	obj, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, false)
	return obj.(*imageObj)
}

// TestRecycleOnlyVouchedReads pins the pool's side of the reuse rule: the
// buffer a miss reads into is the image a load of this pool read for the
// frame, handed back only when its object vouches for it. An object Insert
// installed is never asked, however loudly it vouches (redo installs leaves
// decoded from log-record bytes), and a refusal drops the buffer.
func TestRecycleOnlyVouchedReads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		vouch bool
	}{{"refused", false}, {"vouched", true}} {
		t.Run(tc.name, func(t *testing.T) {
			st := &intoLog{MemStore: storage.NewMemStore(128)}
			p := NewPool(st, nil, &imageCodec{vouch: tc.vouch}, 1)
			ids := pages(t, st, 3)

			// An Inserted object that vouches: its buffer never reaches a load.
			ins := &imageObj{image: make([]byte, 128), ok: true}
			if err := p.Insert(ids[0], ins); err != nil {
				t.Fatal(err)
			}
			p.Unpin(ids[0], false)
			loaded := fetch(t, p, ids[1]) // evicts the Inserted object
			if st.handed(ins.image) {
				t.Fatal("a buffer installed by Insert was handed to a load")
			}

			// A loaded object: its image comes back only if it vouched.
			again := fetch(t, p, ids[2]) // evicts loaded
			if got := st.handed(loaded.image); got != tc.vouch {
				t.Fatalf("image of an object that vouched=%v handed to a load: %v", tc.vouch, got)
			}
			if tc.vouch && &again.image[0] != &loaded.image[0] {
				t.Fatal("the next miss did not read into the vouched image")
			}

			// Insert over a frame whose victim vouched drops the buffer, so
			// not even a vouching Inserted object can pass it on.
			if err := p.Insert(ids[0], &imageObj{image: make([]byte, 128), ok: true}); err != nil {
				t.Fatal(err)
			}
			p.Unpin(ids[0], false)
			last := fetch(t, p, ids[1])
			if &last.image[0] == &again.image[0] {
				t.Fatal("a load read into the image of an object evicted by Insert's claim")
			}
		})
	}
}

// TestWarmMissAllocatesNoPage: once the pool is warm, a miss that evicts an
// object vouching for its image reads into that image, so over a MemStore
// (whose ReadInto copies) and a codec that allocates nothing, a miss
// allocates nothing at all.
func TestWarmMissAllocatesNoPage(t *testing.T) {
	st := storage.NewMemStore(128)
	p := NewPool(st, nil, &imageCodec{vouch: true, reuse: new(imageObj)}, 1)
	ids := pages(t, st, 2)
	fetch(t, p, ids[0]) // warm: the frame now holds a read buffer
	reads := st.Stats().Reads
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if _, err := p.Fetch(ids[i%2]); err != nil {
			t.Fatal(err)
		}
		p.Unpin(ids[i%2], false)
	})
	if n := st.Stats().Reads - reads; n < 200 {
		t.Fatalf("%d reads in 200 alternating fetches over one frame: not all misses", n)
	}
	if allocs != 0 {
		t.Fatalf("a warm miss allocates %.1f times, want 0", allocs)
	}
}
