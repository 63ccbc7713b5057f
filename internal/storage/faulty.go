package storage

import (
	"errors"
	"fmt"

	"blinktree/internal/page"
)

// ErrInjected is the error surfaced by injected failures (see Injector).
var ErrInjected = errors.New("storage: injected fault")

// FaultyStore wraps a Store and injects failures on demand through the
// embedded Injector — the same injection surface SimStore uses, so
// error-injection tests and crash-simulation tests are configured
// identically. It exists for fault-injection tests: the tree must surface
// clean errors — and remain structurally intact — when the storage layer
// misbehaves.
//
// An injected failure is reported before the inner store is touched, so the
// inner store's durable state is unchanged by the failed call.
type FaultyStore struct {
	Injector

	// Inner is the wrapped store; all successful calls pass through to it.
	Inner Store
}

// NewFaultyStore wraps inner with an inactive Injector.
func NewFaultyStore(inner Store) *FaultyStore { return &FaultyStore{Inner: inner} }

// PageSize implements Store.
func (s *FaultyStore) PageSize() int { return s.Inner.PageSize() }

// Allocate implements Store.
func (s *FaultyStore) Allocate() (page.PageID, error) {
	if err := s.allocErr(); err != nil {
		return page.InvalidPage, err
	}
	return s.Inner.Allocate()
}

// Deallocate implements Store.
func (s *FaultyStore) Deallocate(id page.PageID) error { return s.Inner.Deallocate(id) }

// EnsureAllocated implements Store.
func (s *FaultyStore) EnsureAllocated(id page.PageID) error { return s.Inner.EnsureAllocated(id) }

// Read implements Store.
func (s *FaultyStore) Read(id page.PageID) ([]byte, error) {
	if err := s.readErr(); err != nil {
		return nil, err
	}
	return s.Inner.Read(id)
}

// ReadInto implements PageReader, failing wherever Read would.
func (s *FaultyStore) ReadInto(id page.PageID, buf []byte) error {
	if err := s.readErr(); err != nil {
		return err
	}
	got, err := ReadInto(s.Inner, id, buf)
	if err != nil {
		return err
	}
	if len(got) != len(buf) {
		return fmt.Errorf("%w: got %d, want %d", ErrBadSize, len(buf), len(got))
	}
	copy(buf, got) // got is buf itself when the inner store reads into it
	return nil
}

// Write implements Store.
func (s *FaultyStore) Write(id page.PageID, buf []byte) error {
	if err := s.writeErr(); err != nil {
		return err
	}
	return s.Inner.Write(id, buf)
}

// Allocated implements Store.
func (s *FaultyStore) Allocated(id page.PageID) bool { return s.Inner.Allocated(id) }

// Stats implements Store.
func (s *FaultyStore) Stats() Stats { return s.Inner.Stats() }

// Sync implements Store.
func (s *FaultyStore) Sync() error {
	if err := s.syncErr(); err != nil {
		return err
	}
	return s.Inner.Sync()
}

// Close implements Store.
func (s *FaultyStore) Close() error { return s.Inner.Close() }
