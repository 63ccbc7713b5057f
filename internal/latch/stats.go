package latch

import (
	"sync/atomic"
	"time"

	"blinktree/internal/obs"
)

// Stats aggregates latch activity. Counters are always-on; the experiment
// harness uses them to report latch waits and no-wait failures (paper §2.4).
type Stats struct {
	AcquireShared    uint64 // granted S requests
	AcquireUpdate    uint64 // granted U requests
	AcquireExclusive uint64 // granted X requests
	Waits            uint64 // blocking acquisitions that had to wait
	WaitNanos        uint64 // total nanoseconds spent blocked
	LongWaits        uint64 // waits at or above the recorder's threshold
	TryFailures      uint64 // TryAcquire calls that were refused
	Promotions       uint64 // U→X promotions
}

// Recorder is a per-tree (or per-subsystem) latch statistics sink. Latches
// carrying a Recorder count into it instead of the package's global sink,
// so two trees in one process do not pollute each other's numbers. The
// zero value is ready for use; grants are striped by the latch's address.
type Recorder struct {
	acquireS  obs.Striped
	acquireU  obs.Striped
	acquireX  obs.Striped
	waits     atomic.Uint64
	waitNanos atomic.Uint64
	longWaits atomic.Uint64
	tryFail   atomic.Uint64
	promote   atomic.Uint64

	// threshold/onLongWait are set once before the recorder sees traffic
	// (SetLongWaitCallback); a wait of at least threshold is counted in
	// longWaits and reported to onLongWait.
	threshold time.Duration
	onLong    func(d time.Duration)
}

// SetLongWaitCallback arms long-wait accounting: blocking acquisitions that
// wait at least threshold are counted and, when fn is non-nil, reported to
// it. Must be called before the recorder's latches see traffic.
func (r *Recorder) SetLongWaitCallback(threshold time.Duration, fn func(d time.Duration)) {
	r.threshold = threshold
	r.onLong = fn
}

func (r *Recorder) recordAcquire(hint uintptr, m Mode, waited time.Duration, blocked bool) {
	switch m {
	case Shared:
		r.acquireS.Add(hint, 1)
	case Update:
		r.acquireU.Add(hint, 1)
	case Exclusive:
		r.acquireX.Add(hint, 1)
	}
	if !blocked {
		return
	}
	r.waits.Add(1)
	r.waitNanos.Add(uint64(waited))
	if r.threshold > 0 && waited >= r.threshold {
		r.longWaits.Add(1)
		if r.onLong != nil {
			r.onLong(waited)
		}
	}
}

func (r *Recorder) recordTryFail() { r.tryFail.Add(1) }
func (r *Recorder) recordPromote() { r.promote.Add(1) }

// Snapshot returns the recorder's current statistics.
func (r *Recorder) Snapshot() Stats {
	return Stats{
		AcquireShared:    r.acquireS.Load(),
		AcquireUpdate:    r.acquireU.Load(),
		AcquireExclusive: r.acquireX.Load(),
		Waits:            r.waits.Load(),
		WaitNanos:        r.waitNanos.Load(),
		LongWaits:        r.longWaits.Load(),
		TryFailures:      r.tryFail.Load(),
		Promotions:       r.promote.Load(),
	}
}

// global receives activity from latches without a Recorder; nothing reads
// it outside this package's tests.
var global Recorder
