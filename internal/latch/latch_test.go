package latch

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestModeString(t *testing.T) {
	cases := map[Mode]string{None: "-", Shared: "S", Update: "U", Exclusive: "X", Mode(9): "?"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, got, want)
		}
	}
}

func TestCompatibilityMatrix(t *testing.T) {
	// The matrix from paper §2.4: S-S yes, S-U yes, U-U no, X-anything no.
	cases := []struct {
		held, req Mode
		want      bool
	}{
		{None, Shared, true}, {None, Update, true}, {None, Exclusive, true},
		{Shared, Shared, true}, {Shared, Update, true}, {Shared, Exclusive, false},
		{Update, Shared, true}, {Update, Update, false}, {Update, Exclusive, false},
		{Exclusive, Shared, false}, {Exclusive, Update, false}, {Exclusive, Exclusive, false},
	}
	for _, c := range cases {
		if got := Compatible(c.held, c.req); got != c.want {
			t.Errorf("Compatible(%v, %v) = %v, want %v", c.held, c.req, got, c.want)
		}
	}
}

func TestSharedConcurrent(t *testing.T) {
	var l Latch
	l.Acquire(Shared)
	if !l.TryAcquire(Shared) {
		t.Fatal("second shared acquisition refused")
	}
	if r, _, _ := l.Held(); r != 2 {
		t.Fatalf("readers = %d, want 2", r)
	}
	l.Release(Shared)
	l.Release(Shared)
	if r, u, x := l.Held(); r != 0 || u || x {
		t.Fatalf("latch not empty after releases: %d %v %v", r, u, x)
	}
}

func TestUpdateCompatibleWithShared(t *testing.T) {
	var l Latch
	l.Acquire(Update)
	if !l.TryAcquire(Shared) {
		t.Fatal("shared refused alongside update")
	}
	if l.TryAcquire(Update) {
		t.Fatal("second update granted")
	}
	if l.TryAcquire(Exclusive) {
		t.Fatal("exclusive granted alongside update+shared")
	}
	l.Release(Shared)
	l.Release(Update)
}

func TestExclusiveExcludesAll(t *testing.T) {
	var l Latch
	l.Acquire(Exclusive)
	for _, m := range []Mode{Shared, Update, Exclusive} {
		if l.TryAcquire(m) {
			t.Fatalf("%v granted alongside exclusive", m)
		}
	}
	l.Release(Exclusive)
	if !l.TryAcquire(Exclusive) {
		t.Fatal("exclusive refused on free latch")
	}
	l.Release(Exclusive)
}

func TestAcquireNoneIsNoop(t *testing.T) {
	var l Latch
	l.Acquire(None)
	if !l.TryAcquire(None) {
		t.Fatal("TryAcquire(None) = false")
	}
	l.Release(None)
	if !l.TryAcquire(Exclusive) {
		t.Fatal("latch disturbed by None operations")
	}
	l.Release(Exclusive)
}

func TestPromoteWaitsForReaders(t *testing.T) {
	var l Latch
	l.Acquire(Update)
	l.Acquire(Shared)

	promoted := make(chan struct{})
	go func() {
		l.Promote()
		close(promoted)
	}()

	select {
	case <-promoted:
		t.Fatal("promotion completed while a reader was present")
	case <-time.After(20 * time.Millisecond):
	}

	l.Release(Shared)
	select {
	case <-promoted:
	case <-time.After(time.Second):
		t.Fatal("promotion did not complete after reader drained")
	}
	if _, _, x := l.Held(); !x {
		t.Fatal("exclusive not held after promotion")
	}
	l.Release(Exclusive)
}

func TestPromotionBlocksNewReaders(t *testing.T) {
	var l Latch
	l.Acquire(Update)
	l.Acquire(Shared)

	go func() {
		time.Sleep(20 * time.Millisecond)
		l.Release(Shared)
	}()
	done := make(chan struct{})
	go func() {
		l.Promote()
		close(done)
	}()
	// Give the promoter time to set the promoting flag, then verify a new
	// reader is refused so promotion cannot starve.
	time.Sleep(10 * time.Millisecond)
	if l.TryAcquire(Shared) {
		t.Fatal("new reader admitted during pending promotion")
	}
	<-done
	l.Release(Exclusive)
}

func TestWritersNotStarved(t *testing.T) {
	var l Latch
	l.Acquire(Shared)
	got := make(chan struct{})
	go func() {
		l.Acquire(Exclusive)
		close(got)
	}()
	// Wait until the writer is queued, then verify new readers defer to it.
	deadline := time.Now().Add(time.Second)
	for {
		l.mu.Lock()
		waiting := l.waitingX
		l.mu.Unlock()
		if waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if l.TryAcquire(Shared) {
		t.Fatal("reader admitted ahead of waiting writer")
	}
	l.Release(Shared)
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("writer never granted")
	}
	l.Release(Exclusive)
}

func TestReleaseUnheldPanics(t *testing.T) {
	for _, m := range []Mode{Shared, Update, Exclusive} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Release(%v) on free latch did not panic", m)
				}
			}()
			var l Latch
			l.Release(m)
		}()
	}
}

func TestPromoteWithoutUpdatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Promote without update holder did not panic")
		}
	}()
	var l Latch
	l.Promote()
}

// TestMutualExclusionStress hammers a latch from many goroutines and checks
// the fundamental invariant: an exclusive holder is alone, and an update
// holder is unique.
func TestMutualExclusionStress(t *testing.T) {
	var l Latch
	var (
		inShared atomic.Int64
		inUpdate atomic.Int64
		inExcl   atomic.Int64
		bad      atomic.Int64
	)
	check := func() {
		s, u, x := inShared.Load(), inUpdate.Load(), inExcl.Load()
		if x > 1 || u > 1 || (x == 1 && (s > 0 || u > 0)) {
			bad.Add(1)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				switch rng.Intn(3) {
				case 0:
					l.Acquire(Shared)
					inShared.Add(1)
					check()
					inShared.Add(-1)
					l.Release(Shared)
				case 1:
					l.Acquire(Update)
					inUpdate.Add(1)
					check()
					if rng.Intn(2) == 0 {
						inUpdate.Add(-1)
						l.Promote()
						inExcl.Add(1)
						check()
						inExcl.Add(-1)
						l.Release(Exclusive)
					} else {
						inUpdate.Add(-1)
						l.Release(Update)
					}
				default:
					l.Acquire(Exclusive)
					inExcl.Add(1)
					check()
					inExcl.Add(-1)
					l.Release(Exclusive)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("observed %d exclusion violations", n)
	}
	if r, u, x := l.Held(); r != 0 || u || x {
		t.Fatalf("latch not free after stress: %d %v %v", r, u, x)
	}
}

// TestCompatibleQuick property-tests that Compatible is consistent with
// canGrant for single-holder states.
func TestCompatibleQuick(t *testing.T) {
	f := func(heldRaw, reqRaw uint8) bool {
		held := Mode(heldRaw%3 + 1) // Shared, Update, Exclusive
		req := Mode(reqRaw%3 + 1)
		var l Latch
		l.Acquire(held)
		got := l.TryAcquire(req)
		want := Compatible(held, req)
		if got {
			l.Release(req)
		}
		l.Release(held)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsCounting checks the counters through the sink a latch without a
// Recorder counts into.
func TestStatsCounting(t *testing.T) {
	before := global.Snapshot()
	var l Latch
	l.Acquire(Shared)
	l.Release(Shared)
	l.Acquire(Update)
	l.Promote()
	l.Release(Exclusive)
	l.Acquire(Exclusive)
	if l.TryAcquire(Shared) {
		t.Fatal("unexpected grant")
	}
	l.Release(Exclusive)
	s := global.Snapshot()
	if s.AcquireShared-before.AcquireShared != 1 || s.AcquireUpdate-before.AcquireUpdate != 1 ||
		s.AcquireExclusive-before.AcquireExclusive != 1 {
		t.Fatalf("acquire counts = %+v, before %+v", s, before)
	}
	if s.Promotions-before.Promotions != 1 || s.TryFailures-before.TryFailures != 1 {
		t.Fatalf("promotions/tryFailures = %+v, before %+v", s, before)
	}
}

func TestRecorderSink(t *testing.T) {
	before := global.Snapshot()
	var rec Recorder
	var longWaits atomic.Uint64
	rec.SetLongWaitCallback(time.Nanosecond, func(d time.Duration) {
		if d < time.Nanosecond {
			t.Errorf("long-wait callback with d=%v", d)
		}
		longWaits.Add(1)
	})
	var l Latch
	l.SetRecorder(&rec)

	l.Acquire(Exclusive)
	done := make(chan struct{})
	go func() {
		l.Acquire(Shared) // must block, then wait ≥1ns
		l.Release(Shared)
		close(done)
	}()
	// Let the reader reach the wait loop, then release.
	for {
		if s := rec.Snapshot(); s.AcquireExclusive == 1 {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	l.Release(Exclusive)
	<-done

	s := rec.Snapshot()
	if s.AcquireShared != 1 || s.AcquireExclusive != 1 {
		t.Fatalf("recorder acquire counts = %+v", s)
	}
	if s.Waits != 1 || s.WaitNanos == 0 {
		t.Fatalf("recorder waits = %+v", s)
	}
	if s.LongWaits != 1 || longWaits.Load() != 1 {
		t.Fatalf("long waits = %d, callback = %d", s.LongWaits, longWaits.Load())
	}
	// Recorder traffic stays out of the global sink.
	if g := global.Snapshot(); g != before {
		t.Fatalf("global sink polluted: %+v, before %+v", g, before)
	}
}

func TestVersionWord(t *testing.T) {
	var l Latch
	v0, ok := l.OptVersion()
	if !ok {
		t.Fatal("fresh latch version is odd")
	}
	if !l.Validate(v0) {
		t.Fatal("unchanged latch fails validation")
	}

	// Shared traffic never moves the version.
	l.Acquire(Shared)
	if _, ok := l.OptVersion(); !ok {
		t.Fatal("version odd under shared latch")
	}
	l.Release(Shared)
	if !l.Validate(v0) {
		t.Fatal("shared acquire/release changed the version")
	}

	// Exclusive ownership holds the version odd for its whole duration.
	l.Acquire(Exclusive)
	if _, ok := l.OptVersion(); ok {
		t.Fatal("version even while exclusively latched")
	}
	if l.Validate(v0) {
		t.Fatal("stale version validated across an exclusive acquire")
	}
	l.Release(Exclusive)
	v1, ok := l.OptVersion()
	if !ok {
		t.Fatal("version odd after exclusive release")
	}
	if v1 == v0 {
		t.Fatal("exclusive cycle did not advance the version")
	}

	// Promotion from Update opens an odd window; the release closes it.
	l.Acquire(Update)
	if _, ok := l.OptVersion(); !ok {
		t.Fatal("version odd under update latch (update holders don't modify)")
	}
	l.Promote()
	if _, ok := l.OptVersion(); ok {
		t.Fatal("version even after promotion to exclusive")
	}
	l.Release(Exclusive)
	v2, ok := l.OptVersion()
	if !ok {
		t.Fatal("version odd after exclusive release")
	}
	if v2 == v1 {
		t.Fatal("promote/release cycle did not advance the version")
	}
	l.Acquire(Shared)
	l.Release(Shared)
	if !l.Validate(v2) {
		t.Fatal("shared cycle changed the version")
	}
}
