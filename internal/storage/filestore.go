package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"blinktree/internal/page"
)

// FileStore is a Store backed by a single file. Page i lives at byte offset
// i*pageSize; offset 0 holds the store header (magic, page size, allocation
// frontier and free list), so page IDs start at 1, which conveniently leaves
// 0 as the nil pointer.
//
// The allocator state is written out on Sync and Close. Crash consistency of
// allocation is the write-ahead log's job (alloc/dealloc are logged and
// replayed), so a torn header is repaired by recovery, not by the store.
//
// An allocated page reads as zeros until it is first written. Past the end
// of the file that costs one Truncate for the whole run; a page the file
// already covers — one reused from the free list, or one a crash left
// behind beyond the persisted frontier — gets a zero write, so recovery can
// tell "allocated, never written" from a torn page.
//
// Page I/O holds mu shared, so reads and writes of different pages overlap
// in the kernel (pread/pwrite carry their own offset); whatever changes the
// allocator state or closes the file holds it exclusively.
type FileStore struct {
	mu       sync.RWMutex
	f        *os.File
	pageSize int
	size     int64 // file length in bytes
	next     page.PageID
	free     []page.PageID
	live     []uint64 // bit id%64 of word id/64 is set while page id is allocated
	nlive    int      // set bits in live
	closed   bool

	reads    atomic.Uint64 // counted under mu held shared
	writes   atomic.Uint64
	allocs   uint64
	deallocs uint64
}

const fileMagic = "BLKS"

// minPageSize keeps the header representable; real configurations use 4KiB+.
const minPageSize = 128

// OpenFileStore opens or creates a file-backed store at path. If the file
// exists its page size must match pageSize.
func OpenFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize < minPageSize {
		return nil, fmt.Errorf("storage: page size %d below minimum %d", pageSize, minPageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &FileStore{
		f:        f,
		pageSize: pageSize,
		next:     1,
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if s.size = info.Size(); s.size == 0 {
		if err := s.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		s.size = int64(pageSize)
		return s, nil
	}
	if err := s.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// header layout: magic(4) pageSize(4) next(8) freeCount(4) free[...](8 each)
func (s *FileStore) writeHeader() error {
	buf := make([]byte, s.pageSize)
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(s.pageSize))
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.next))
	maxFree := (s.pageSize - 20) / 8
	n := len(s.free)
	if n > maxFree {
		// Overflowing free entries are dropped: those pages leak until a
		// rebuild. Acceptable for this store; noted in the package docs.
		n = maxFree
	}
	binary.LittleEndian.PutUint32(buf[16:], uint32(n))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[20+8*i:], uint64(s.free[i]))
	}
	_, err := s.f.WriteAt(buf, 0)
	return err
}

func (s *FileStore) readHeader() error {
	buf := make([]byte, s.pageSize)
	if _, err := s.f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("storage: reading header: %w", err)
	}
	if string(buf[:4]) != fileMagic {
		return fmt.Errorf("storage: bad file magic %q", buf[:4])
	}
	if got := int(binary.LittleEndian.Uint32(buf[4:])); got != s.pageSize {
		return fmt.Errorf("storage: file page size %d, opened with %d", got, s.pageSize)
	}
	s.next = page.PageID(binary.LittleEndian.Uint64(buf[8:]))
	nfree := int(binary.LittleEndian.Uint32(buf[16:]))
	s.free = s.free[:0]
	freeSet := make(map[page.PageID]struct{}, nfree)
	for i := 0; i < nfree; i++ {
		id := page.PageID(binary.LittleEndian.Uint64(buf[20+8*i:]))
		s.free = append(s.free, id)
		freeSet[id] = struct{}{}
	}
	for id := page.PageID(1); id < s.next; id++ {
		if _, ok := freeSet[id]; !ok {
			s.setLive(id, true)
		}
	}
	return nil
}

// isLive reports whether page id is allocated. Caller holds s.mu.
func (s *FileStore) isLive(id page.PageID) bool {
	w := int(id >> 6)
	return w < len(s.live) && s.live[w]&(1<<(id&63)) != 0
}

// setLive marks page id allocated or free, growing the bitset to cover it.
// Caller holds s.mu exclusively.
func (s *FileStore) setLive(id page.PageID, on bool) {
	if w := int(id >> 6); w >= len(s.live) {
		s.live = append(s.live, make([]uint64, w+1-len(s.live))...)
	}
	if s.isLive(id) == on {
		return
	}
	s.live[id>>6] ^= 1 << (id & 63)
	if on {
		s.nlive++
	} else {
		s.nlive--
	}
}

// PageSize implements Store.
func (s *FileStore) PageSize() int { return s.pageSize }

// Allocate implements Store.
func (s *FileStore) Allocate() (page.PageID, error) {
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
	if err := s.zeroLocked(id, 1); err != nil {
		s.free = append(s.free, id)
		return page.InvalidPage, err
	}
	s.setLive(id, true)
	s.allocs++
	return id, nil
}

// zeroLocked makes pages [first, first+n) read as zeros: the part the file
// already covers is written with zeros, the rest is one Truncate that
// extends the file. Caller holds s.mu exclusively.
func (s *FileStore) zeroLocked(first page.PageID, n int) error {
	off := int64(first) * int64(s.pageSize)
	end := off + int64(n)*int64(s.pageSize)
	if off < s.size {
		if _, err := s.f.WriteAt(make([]byte, min(end, s.size)-off), off); err != nil {
			return err
		}
	}
	if end > s.size {
		if err := s.f.Truncate(end); err != nil {
			return err
		}
		s.size = end
	}
	return nil
}

// AllocateBatch implements BatchAllocator: n fresh pages under one lock
// acquisition, extending the file once for the whole run when the batch
// comes off the frontier (the common case during bulk load).
func (s *FileStore) AllocateBatch(n int) ([]page.PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	ids := make([]page.PageID, 0, n)
	for len(ids) < n && len(s.free) > 0 {
		id := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		if err := s.zeroLocked(id, 1); err != nil {
			s.free = append(s.free, id)
			s.rollbackBatch(ids)
			return nil, err
		}
		s.setLive(id, true)
		s.allocs++
		ids = append(ids, id)
	}
	if rest := n - len(ids); rest > 0 {
		first := s.next
		if err := s.zeroLocked(first, rest); err != nil {
			s.rollbackBatch(ids)
			return nil, err
		}
		for i := 0; i < rest; i++ {
			id := first + page.PageID(i)
			s.setLive(id, true)
			s.allocs++
			ids = append(ids, id)
		}
		s.next = first + page.PageID(rest)
	}
	return ids, nil
}

// rollbackBatch releases pages reserved by a batch that failed part-way.
// Caller holds s.mu.
func (s *FileStore) rollbackBatch(ids []page.PageID) {
	for _, id := range ids {
		s.setLive(id, false)
		s.free = append(s.free, id)
		s.deallocs++
	}
}

// EnsureAllocated implements Store.
func (s *FileStore) EnsureAllocated(id page.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.isLive(id) {
		return nil
	}
	for i, f := range s.free {
		if f == id {
			s.free = append(s.free[:i], s.free[i+1:]...)
			break
		}
	}
	for s.next <= id {
		if s.next != id {
			s.free = append(s.free, s.next)
		}
		s.next++
	}
	if err := s.zeroLocked(id, 1); err != nil {
		s.free = append(s.free, id)
		return err
	}
	s.setLive(id, true)
	s.allocs++
	return nil
}

// Deallocate implements Store.
func (s *FileStore) Deallocate(id page.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.isLive(id) {
		return fmt.Errorf("%w: deallocate %d", ErrNotAllocated, id)
	}
	s.setLive(id, false)
	s.free = append(s.free, id)
	s.deallocs++
	return nil
}

// Read implements Store.
func (s *FileStore) Read(id page.PageID) ([]byte, error) {
	buf := make([]byte, s.pageSize)
	if err := s.ReadInto(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto implements PageReader: one pread into buf.
func (s *FileStore) ReadInto(id page.PageID, buf []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrBadSize, len(buf), s.pageSize)
	}
	if !s.isLive(id) {
		return fmt.Errorf("%w: read %d", ErrNotAllocated, id)
	}
	if _, err := s.f.ReadAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return err
	}
	s.reads.Add(1)
	return nil
}

// Write implements Store.
func (s *FileStore) Write(id page.PageID, buf []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrBadSize, len(buf), s.pageSize)
	}
	if !s.isLive(id) {
		return fmt.Errorf("%w: write %d", ErrNotAllocated, id)
	}
	if _, err := s.f.WriteAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return err
	}
	s.writes.Add(1)
	return nil
}

// WriteRun implements RunWriter: after checking every page is allocated, one
// pwrite per stretch of consecutive page IDs — a single one for a batch
// allocated off the frontier.
func (s *FileStore) WriteRun(ids []page.PageID, buf []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if len(buf) != len(ids)*s.pageSize {
		return fmt.Errorf("%w: got %d for %d pages of %d", ErrBadSize, len(buf), len(ids), s.pageSize)
	}
	for _, id := range ids {
		if !s.isLive(id) {
			return fmt.Errorf("%w: write %d", ErrNotAllocated, id)
		}
	}
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		if _, err := s.f.WriteAt(buf[i*s.pageSize:j*s.pageSize], int64(ids[i])*int64(s.pageSize)); err != nil {
			return err
		}
		s.writes.Add(uint64(j - i))
		i = j
	}
	return nil
}

// Allocated implements Store.
func (s *FileStore) Allocated(id page.PageID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.isLive(id)
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Reads: s.reads.Load(), Writes: s.writes.Load(),
		Allocs: s.allocs, Deallocs: s.deallocs,
		LivePages: s.nlive, HighestPage: s.next - 1,
	}
}

// Sync implements Store: persists the allocator header and fsyncs.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.writeHeader(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.writeHeader(); err != nil {
		s.f.Close()
		s.closed = true
		return err
	}
	err := s.f.Close()
	s.closed = true
	return err
}
