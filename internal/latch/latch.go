// Package latch implements the light-weight node latches of Lomet's
// B-link-tree method (ICDE 2004, §2.4).
//
// Latches come in three modes:
//
//	Shared (S)     — compatible with S and U.
//	Update (U)     — compatible with S only; at most one U holder.
//	Exclusive (X)  — compatible with nothing.
//
// An Update holder may Promote to Exclusive without releasing; because U is
// incompatible with U there is never more than one promoter, so promotion
// cannot deadlock with another promoter (paper §3.1.1, footnote 4).
//
// Unlike locks, latches are not managed by a lock manager and perform no
// deadlock detection: all callers must acquire latches in the tree's partial
// order (down the tree, then rightward along side pointers, with the delete
// state latch ordered before any node latch).
package latch

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Mode identifies a latch mode.
type Mode uint8

// Latch modes.
const (
	// None means no latch is held. It is the zero Mode.
	None Mode = iota
	// Shared permits concurrent readers and one update holder.
	Shared
	// Update permits concurrent readers and reserves the right to promote.
	Update
	// Exclusive excludes all other holders.
	Exclusive
)

// String returns the conventional single-letter name of the mode.
func (m Mode) String() string {
	switch m {
	case None:
		return "-"
	case Shared:
		return "S"
	case Update:
		return "U"
	case Exclusive:
		return "X"
	default:
		return "?"
	}
}

// Compatible reports whether a new request in mode m may be granted while a
// latch in mode held is outstanding.
func Compatible(held, m Mode) bool {
	switch held {
	case None:
		return true
	case Shared:
		return m == Shared || m == Update
	case Update:
		return m == Shared
	default: // Exclusive
		return false
	}
}

// Latch is a S/U/X latch. The zero value is an unheld latch ready for use.
//
// A Latch must not be copied after first use.
type Latch struct {
	mu      sync.Mutex
	grant   sync.Cond // lazily bound to mu
	readers int       // current S holders
	update  bool      // a U holder exists
	excl    bool      // an X holder exists
	// promoting is set while the U holder waits for readers to drain; it
	// blocks new S admissions so promotion cannot starve.
	promoting bool
	// waitingX counts blocked X requesters; new S requests defer to them so
	// writers are not starved by a stream of readers.
	waitingX int

	// version is a seqlock-style sequence word for optimistic readers: it
	// is bumped whenever exclusive ownership is gained (Acquire/TryAcquire
	// in X mode, Promote) and again when it is given up (Release(Exclusive)),
	// so it is odd exactly while an X holder
	// exists. An optimistic reader samples it with OptVersion, reads the
	// protected state through its own atomics, and calls Validate to learn
	// whether any exclusive ownership intervened.
	version atomic.Uint64

	// rec is the statistics sink; nil falls back to the package globals.
	// Set once (SetRecorder) before the latch sees traffic.
	rec *Recorder
}

// SetRecorder directs the latch's statistics to r (a per-tree sink). It
// must be called before the latch is shared between goroutines.
func (l *Latch) SetRecorder(r *Recorder) { l.rec = r }

// sink returns the latch's statistics sink.
func (l *Latch) sink() *Recorder {
	if l.rec != nil {
		return l.rec
	}
	return &global
}

func (l *Latch) init() {
	if l.grant.L == nil {
		l.grant.L = &l.mu
	}
}

// canGrant reports whether a request in mode m can be granted right now.
// Caller holds l.mu.
func (l *Latch) canGrant(m Mode) bool {
	switch m {
	case Shared:
		return !l.excl && !l.promoting && l.waitingX == 0
	case Update:
		return !l.excl && !l.update
	case Exclusive:
		return !l.excl && !l.update && l.readers == 0
	default:
		return false
	}
}

// grantLocked records a granted request in mode m. Caller holds l.mu.
func (l *Latch) grantLocked(m Mode) {
	switch m {
	case Shared:
		l.readers++
	case Update:
		l.update = true
	case Exclusive:
		l.excl = true
		l.version.Add(1) // now odd: optimistic readers back off
	}
}

// Acquire blocks until a latch in mode m is granted.
func (l *Latch) Acquire(m Mode) {
	if m == None {
		return
	}
	l.mu.Lock()
	l.init()
	if l.canGrant(m) {
		l.grantLocked(m)
		l.mu.Unlock()
		l.sink().recordAcquire(uintptr(unsafe.Pointer(l)), m, 0, false)
		return
	}
	// Blocked: the wait itself dwarfs the pair of clock reads, so measuring
	// here costs nothing on the fast path above.
	t0 := time.Now()
	if m == Exclusive {
		l.waitingX++
	}
	for !l.canGrant(m) {
		l.grant.Wait()
	}
	if m == Exclusive {
		l.waitingX--
	}
	l.grantLocked(m)
	l.mu.Unlock()
	l.sink().recordAcquire(uintptr(unsafe.Pointer(l)), m, time.Since(t0), true)
}

// TryAcquire attempts to acquire a latch in mode m without blocking and
// reports whether it was granted.
func (l *Latch) TryAcquire(m Mode) bool {
	if m == None {
		return true
	}
	l.mu.Lock()
	l.init()
	ok := l.canGrant(m)
	if ok {
		l.grantLocked(m)
	}
	l.mu.Unlock()
	if ok {
		l.sink().recordAcquire(uintptr(unsafe.Pointer(l)), m, 0, false)
	} else {
		l.sink().recordTryFail()
	}
	return ok
}

// Release releases a latch previously granted in mode m.
// Releasing a mode that is not held panics: that is a protocol bug, not a
// recoverable condition.
func (l *Latch) Release(m Mode) {
	if m == None {
		return
	}
	l.mu.Lock()
	l.init()
	switch m {
	case Shared:
		if l.readers <= 0 {
			l.mu.Unlock()
			panic("latch: Release(Shared) with no shared holders")
		}
		l.readers--
	case Update:
		if !l.update {
			l.mu.Unlock()
			panic("latch: Release(Update) with no update holder")
		}
		l.update = false
		l.promoting = false
	case Exclusive:
		if !l.excl {
			l.mu.Unlock()
			panic("latch: Release(Exclusive) with no exclusive holder")
		}
		l.excl = false
		l.version.Add(1) // even again: exclusive ownership is over
	}
	l.grant.Broadcast()
	l.mu.Unlock()
}

// Promote upgrades the caller's Update latch to Exclusive, waiting for
// current readers to drain. New readers are held off while the promotion is
// pending. The caller must hold the latch in Update mode.
func (l *Latch) Promote() {
	l.mu.Lock()
	l.init()
	if !l.update {
		l.mu.Unlock()
		panic("latch: Promote without update holder")
	}
	l.promoting = true
	for l.readers > 0 {
		l.grant.Wait()
	}
	l.update = false
	l.promoting = false
	l.excl = true
	l.version.Add(1)
	l.mu.Unlock()
	l.sink().recordPromote()
}

// OptVersion samples the latch's version word for an optimistic read. ok is
// false while an exclusive holder exists (the word is odd); a reader seeing
// ok=false should retry or fall back to a real latch. The returned value is
// only meaningful for a later Validate.
func (l *Latch) OptVersion() (uint64, bool) {
	v := l.version.Load()
	return v, v&1 == 0
}

// Validate reports whether no exclusive ownership has been gained since
// OptVersion returned v: the optimistic reader's view is as good as one
// taken under a Shared latch held across the same window.
func (l *Latch) Validate(v uint64) bool {
	return l.version.Load() == v
}

// Held returns a best-effort snapshot of the latch occupancy, for tests and
// debugging only: (shared holders, update held, exclusive held).
func (l *Latch) Held() (readers int, update, exclusive bool) {
	l.mu.Lock()
	readers, update, exclusive = l.readers, l.update, l.excl
	l.mu.Unlock()
	return readers, update, exclusive
}
