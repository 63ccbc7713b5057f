package storage

import (
	"fmt"
	"sync"

	"blinktree/internal/page"
)

// MemStore is an in-memory Store. It recycles deallocated page IDs in LIFO
// order, which makes use-after-free bugs surface quickly in tests (a stale
// reference will usually observe an unrelated fresh page or an allocation
// failure rather than the old image).
type MemStore struct {
	mu       sync.Mutex
	pageSize int
	pages    map[page.PageID][]byte
	free     []page.PageID
	next     page.PageID
	closed   bool

	reads    uint64
	writes   uint64
	allocs   uint64
	deallocs uint64
}

// NewMemStore returns an empty in-memory store with the given page size.
func NewMemStore(pageSize int) *MemStore {
	return &MemStore{
		pageSize: pageSize,
		pages:    make(map[page.PageID][]byte),
		next:     1, // page 0 is the nil pointer
	}
}

// PageSize implements Store.
func (s *MemStore) PageSize() int { return s.pageSize }

// Allocate implements Store.
func (s *MemStore) Allocate() (page.PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return page.InvalidPage, ErrClosed
	}
	var id page.PageID
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.next
		s.next++
	}
	s.pages[id] = make([]byte, s.pageSize)
	s.allocs++
	return id, nil
}

// AllocateBatch implements BatchAllocator: n fresh pages under one lock
// acquisition.
func (s *MemStore) AllocateBatch(n int) ([]page.PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	ids := make([]page.PageID, 0, n)
	for i := 0; i < n; i++ {
		var id page.PageID
		if f := len(s.free); f > 0 {
			id = s.free[f-1]
			s.free = s.free[:f-1]
		} else {
			id = s.next
			s.next++
		}
		s.pages[id] = make([]byte, s.pageSize)
		s.allocs++
		ids = append(ids, id)
	}
	return ids, nil
}

// EnsureAllocated implements Store.
func (s *MemStore) EnsureAllocated(id page.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.pages[id]; ok {
		return nil
	}
	// Remove id from the free list if it was recycled there.
	for i, f := range s.free {
		if f == id {
			s.free = append(s.free[:i], s.free[i+1:]...)
			break
		}
	}
	// Any page between the old frontier and id becomes free.
	for s.next <= id {
		if s.next != id {
			s.free = append(s.free, s.next)
		}
		s.next++
	}
	s.pages[id] = make([]byte, s.pageSize)
	s.allocs++
	return nil
}

// Deallocate implements Store.
func (s *MemStore) Deallocate(id page.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.pages[id]; !ok {
		return fmt.Errorf("%w: deallocate %d", ErrNotAllocated, id)
	}
	delete(s.pages, id)
	s.free = append(s.free, id)
	s.deallocs++
	return nil
}

// Read implements Store.
func (s *MemStore) Read(id page.PageID) ([]byte, error) {
	buf := make([]byte, s.pageSize)
	if err := s.ReadInto(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto implements PageReader.
func (s *MemStore) ReadInto(id page.PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrBadSize, len(buf), s.pageSize)
	}
	src, ok := s.pages[id]
	if !ok {
		return fmt.Errorf("%w: read %d", ErrNotAllocated, id)
	}
	s.reads++
	copy(buf, src)
	return nil
}

// Write implements Store.
func (s *MemStore) Write(id page.PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrBadSize, len(buf), s.pageSize)
	}
	dst, ok := s.pages[id]
	if !ok {
		return fmt.Errorf("%w: write %d", ErrNotAllocated, id)
	}
	copy(dst, buf)
	s.writes++
	return nil
}

// Allocated implements Store.
func (s *MemStore) Allocated(id page.PageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pages[id]
	return ok
}

// Stats implements Store.
func (s *MemStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Reads: s.reads, Writes: s.writes,
		Allocs: s.allocs, Deallocs: s.deallocs,
		LivePages: len(s.pages), HighestPage: s.next - 1,
	}
}

// Sync implements Store (no-op).
func (s *MemStore) Sync() error { return nil }

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.pages = nil
	s.free = nil
	return nil
}
