// Package storage provides page stores: flat collections of fixed-size page
// images addressed by page ID, with allocation and deallocation.
//
// Two implementations are provided. MemStore keeps pages in memory and is
// the substrate for concurrency experiments (the paper's algorithms are
// about latching, not I/O). FileStore persists pages to a single file and
// backs the durable configurations exercised by the recovery experiments.
//
// Node deallocation matters here because the paper's whole topic is node
// delete: a deallocated page may be reused by a later allocation, and the
// tree must guarantee (via delete state and latch coupling) that no stale
// reference is ever dereferenced. The stores detect use-after-free in tests
// by failing reads of unallocated pages.
package storage

import (
	"errors"
	"fmt"

	"blinktree/internal/page"
)

// Errors returned by stores.
var (
	// ErrNotAllocated is returned when reading or writing a page that is
	// not currently allocated: a use-after-free in the tree.
	ErrNotAllocated = errors.New("storage: page not allocated")
	// ErrBadSize is returned when writing a buffer that is not exactly one
	// page long.
	ErrBadSize = errors.New("storage: buffer size != page size")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("storage: store closed")
)

// Store persists fixed-size page images by page ID.
//
// Implementations must be safe for concurrent use.
type Store interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Allocate reserves a fresh page and returns its ID. IDs may be
	// recycled from deallocated pages.
	Allocate() (page.PageID, error)
	// Deallocate releases a page for reuse.
	Deallocate(id page.PageID) error
	// EnsureAllocated makes a specific page ID allocated, advancing the
	// allocation frontier past it if needed. Recovery uses it to replay
	// logged allocations at their original IDs; it is idempotent.
	EnsureAllocated(id page.PageID) error
	// Read returns the page image in a buffer the caller owns: the store
	// neither retains nor reuses it, so the caller may keep views into it
	// for as long as it likes (page.Unmarshal does).
	Read(id page.PageID) ([]byte, error)
	// Write replaces the page image. len(buf) must equal PageSize. The
	// store copies buf out before returning and keeps no reference to it.
	Write(id page.PageID, buf []byte) error
	// Allocated reports whether id is currently allocated.
	Allocated(id page.PageID) bool
	// Stats returns cumulative operation counts.
	Stats() Stats
	// Sync makes previous writes durable (no-op for MemStore).
	Sync() error
	// Close releases resources. The store is unusable afterwards.
	Close() error
}

// BatchAllocator is an optional Store capability: reserving a run of fresh
// pages under one lock acquisition. Bulk load leases each builder goroutine
// its own page-ID batch up front so the workers never contend on the
// allocator — the shared-lock hot spot a page-at-a-time load would hit.
type BatchAllocator interface {
	// AllocateBatch reserves n fresh pages and returns their IDs.
	AllocateBatch(n int) ([]page.PageID, error)
}

// AllocateBatch reserves n pages from s, using its BatchAllocator fast path
// when present and falling back to n single allocations otherwise (wrappers
// like the fault-injecting store keep their per-call semantics that way).
// On a partial failure the pages already reserved are released.
func AllocateBatch(s Store, n int) ([]page.PageID, error) {
	if ba, ok := s.(BatchAllocator); ok {
		return ba.AllocateBatch(n)
	}
	ids := make([]page.PageID, 0, n)
	for i := 0; i < n; i++ {
		id, err := s.Allocate()
		if err != nil {
			for _, got := range ids {
				_ = s.Deallocate(got)
			}
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// RunWriter is an optional Store capability: writing many pages in one
// call. Bulk load encodes a chunk of leaves into one buffer and hands it
// over whole, so a file store can issue one write for the run instead of one
// per page.
type RunWriter interface {
	// WriteRun writes buf[i*PageSize:(i+1)*PageSize] to ids[i] for every
	// i; len(buf) must be len(ids)*PageSize. If any page is not allocated
	// it returns ErrNotAllocated and writes nothing. Stats.Writes counts
	// the pages, not the calls.
	WriteRun(ids []page.PageID, buf []byte) error
}

// WriteRun writes the pages of buf to ids (see RunWriter), using s's
// RunWriter when present and one Write per page otherwise, stopping at the
// first that fails — so wrappers like the fault-injecting store, and the
// simulated disk, whose crash cuts fall between page writes, keep their
// per-page semantics.
func WriteRun(s Store, ids []page.PageID, buf []byte) error {
	if rw, ok := s.(RunWriter); ok {
		return rw.WriteRun(ids, buf)
	}
	ps := s.PageSize()
	if len(buf) != len(ids)*ps {
		return fmt.Errorf("%w: got %d for %d pages of %d", ErrBadSize, len(buf), len(ids), ps)
	}
	for i, id := range ids {
		if err := s.Write(id, buf[i*ps:(i+1)*ps]); err != nil {
			return err
		}
	}
	return nil
}

// Stats counts store operations.
type Stats struct {
	Reads       uint64
	Writes      uint64
	Allocs      uint64
	Deallocs    uint64
	LivePages   int // currently allocated
	HighestPage page.PageID
}

// String renders the counters on one line for logs and test output.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d deallocs=%d live=%d highest=%d",
		s.Reads, s.Writes, s.Allocs, s.Deallocs, s.LivePages, s.HighestPage)
}
