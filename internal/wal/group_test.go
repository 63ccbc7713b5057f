package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// gateDevice wraps a MemDevice with a controllable Sync: each Sync
// announces itself on enter, then blocks until a token arrives on release.
// Tests use it to hold a leader inside a force while more committers
// arrive, making the coalescing assertions deterministic. failNext makes
// the next released Sync fail without reaching the MemDevice.
type gateDevice struct {
	*MemDevice
	enter    chan struct{}
	release  chan struct{}
	ungated  atomic.Bool
	failNext atomic.Bool
}

var errSyncFailed = errors.New("gateDevice: sync failed")

func newGateDevice() *gateDevice {
	return &gateDevice{
		MemDevice: NewMemDevice(),
		enter:     make(chan struct{}),
		release:   make(chan struct{}),
	}
}

func (d *gateDevice) Sync() error {
	if !d.ungated.Load() {
		d.enter <- struct{}{}
		<-d.release
	}
	if d.failNext.Swap(false) {
		return errSyncFailed
	}
	return d.MemDevice.Sync()
}

// newGatedLog opens a DurSync log over a gateDevice.
func newGatedLog(t *testing.T) (*Log, *gateDevice) {
	t.Helper()
	dev := newGateDevice()
	l, err := NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	l.StartPipeline(PipelineConfig{Mode: DurSync})
	return l, dev
}

// appendCommit appends one commit record.
func appendCommit(t *testing.T, l *Log) LSN {
	t.Helper()
	lsn, err := l.Append(&Record{Type: TCommit, Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// commitChecked commits lsn and turns an acknowledgement that precedes the
// durable horizon into an error.
func commitChecked(l *Log, lsn LSN) error {
	if err := l.Commit(lsn); err != nil {
		return err
	}
	if got := l.FlushedLSN(); got < lsn {
		return fmt.Errorf("acked before force: flushed %d < lsn %d", got, lsn)
	}
	return nil
}

// commitAsync runs commitChecked(lsn) on its own goroutine.
func commitAsync(l *Log, lsn LSN, errs chan<- error) {
	go func() { errs <- commitChecked(l, lsn) }()
}

// holdFirstForce starts a commit that leads a force and returns once the
// device holds it inside Sync; the commit's result arrives on the channel.
func holdFirstForce(t *testing.T, l *Log, dev *gateDevice) <-chan error {
	t.Helper()
	first := make(chan error, 1)
	commitAsync(l, appendCommit(t, l), first)
	<-dev.enter
	return first
}

// booked returns how many commits wait inside force for an acknowledgement.
func booked(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.batch + l.waiting
}

// waitBooked polls until n commits wait inside force.
func waitBooked(t *testing.T, l *Log, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for booked(l) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d commits inside force (have %d)", n, booked(l))
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// followers appends n commit records and commits each on its own goroutine,
// returning once all n wait inside force behind the force in flight.
func followers(t *testing.T, l *Log, n int) (<-chan error, []LSN) {
	t.Helper()
	lsns := make([]LSN, n)
	for i := range lsns {
		lsns[i] = appendCommit(t, l)
	}
	return commitAll(t, l, lsns), lsns
}

// commitAll commits each LSN on its own goroutine and returns once all of
// them wait inside force.
func commitAll(t *testing.T, l *Log, lsns []LSN) <-chan error {
	t.Helper()
	base := booked(l)
	errs := make(chan error, len(lsns))
	for _, lsn := range lsns {
		commitAsync(l, lsn, errs)
	}
	waitBooked(t, l, base+len(lsns))
	return errs
}

// awaitForce returns once the device holds the next force inside Sync. A
// commit that returns first was answered with no force to cover it.
func awaitForce(t *testing.T, dev *gateDevice, commits <-chan error) {
	t.Helper()
	select {
	case <-dev.enter:
	case err := <-commits:
		t.Fatalf("commit returned (%v) before the force that should cover it started", err)
	}
}

// passForce lets the next force through the device.
func passForce(t *testing.T, dev *gateDevice, commits <-chan error) {
	t.Helper()
	awaitForce(t, dev, commits)
	dev.release <- struct{}{}
}

// result receives a commit's outcome; a commit nobody woke is the failure.
func result(t *testing.T, commits <-chan error) error {
	t.Helper()
	select {
	case err := <-commits:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("commit still waiting after 10s (lost wake-up?)")
		return nil
	}
}

// TestCommitAloneForcesOnCaller pins the path of a lone committer: an
// ack-after-force log starts no goroutine (the deprecated "group" spelling
// included), and each commit pays one force of its own.
func TestCommitAloneForcesOnCaller(t *testing.T) {
	mode, err := ParseDurabilityMode("group")
	if err != nil || !mode.AckAfterForce() {
		t.Fatalf("ParseDurabilityMode(group) = %v, %v; want an ack-after-force mode", mode, err)
	}
	dev := NewMemDevice()
	l, err := NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	l.StartPipeline(PipelineConfig{Mode: mode})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("StartPipeline(%s) started %d goroutine(s)", mode, after-before)
	}
	const n = 3
	for i := 0; i < n; i++ {
		if err := commitChecked(l, appendCommit(t, l)); err != nil {
			t.Fatal(err)
		}
	}
	if syncs := dev.Syncs(); syncs != n {
		t.Fatalf("device syncs = %d, want %d (one per lone commit)", syncs, n)
	}
	if gs := l.GroupStats(); gs.Commits != n || gs.Forces != n || gs.MaxBatch != 1 {
		t.Fatalf("GroupStats = %+v, want %d commits, %d forces, max batch 1", gs, n, n)
	}
	if err := l.Stop(true); err != nil {
		t.Fatal(err)
	}
}

// TestCommitsDuringForceShareTheNext holds a leader inside one force while
// more commits arrive, then verifies one further force acknowledges all of
// them — and that none is acknowledged before the durable horizon covers
// its LSN.
func TestCommitsDuringForceShareTheNext(t *testing.T) {
	t.Run("sixteen", func(t *testing.T) {
		l, dev := newGatedLog(t)
		first := holdFirstForce(t, l, dev)
		const n = 16
		rest, _ := followers(t, l, n)

		dev.release <- struct{}{}
		if err := result(t, first); err != nil {
			t.Fatalf("first commit: %v", err)
		}
		passForce(t, dev, rest)
		for i := 0; i < n; i++ {
			if err := result(t, rest); err != nil {
				t.Fatalf("follower: %v", err)
			}
		}
		if syncs := dev.Syncs(); syncs != 2 {
			t.Fatalf("device syncs = %d, want 2 (1 + 1 shared by %d commits)", syncs, n)
		}
		if gs := l.GroupStats(); gs.Commits != n+1 || gs.Forces != 2 || gs.MaxBatch != n {
			t.Fatalf("GroupStats = %+v, want %d commits, 2 forces, max batch %d", gs, n+1, n)
		}
	})

	// Two committers, the case a log-writer that takes a batch of one
	// alternates on: B arrives during A's force, and A's next record is in
	// the log before that force ends. One force follows, covering both.
	t.Run("two", func(t *testing.T) {
		l, dev := newGatedLog(t)
		a1 := holdFirstForce(t, l, dev)
		b, _ := followers(t, l, 1)
		a2 := appendCommit(t, l)

		dev.release <- struct{}{}
		if err := result(t, a1); err != nil {
			t.Fatalf("A's first commit: %v", err)
		}
		next := make(chan error, 1)
		commitAsync(l, a2, next)
		passForce(t, dev, b)
		if err := result(t, b); err != nil {
			t.Fatalf("B's commit: %v", err)
		}
		if err := result(t, next); err != nil {
			t.Fatalf("A's second commit: %v", err)
		}
		if syncs := dev.Syncs(); syncs != 2 {
			t.Fatalf("device syncs = %d, want 2 for 3 commits", syncs)
		}
	})
}

// TestCommitTracedChargesTheCoveringForce pins what a commit's span gets: a
// leader is charged its own force; a follower parks until the force after
// the one in flight starts and is charged that one; neither is charged more
// than the time its commit took.
func TestCommitTracedChargesTheCoveringForce(t *testing.T) {
	l, dev := newGatedLog(t)
	type times struct{ park, force, wall time.Duration }
	traced := func(lsn LSN) <-chan times {
		out := make(chan times, 1)
		go func() {
			var got times
			t0 := time.Now()
			if err := l.CommitTraced(lsn, func(p, f time.Duration) { got.park, got.force = p, f }); err != nil {
				t.Error(err)
			}
			got.wall = time.Since(t0)
			out <- got
		}()
		return out
	}
	leader := traced(appendCommit(t, l))
	<-dev.enter
	entered := time.Now()
	follower := traced(appendCommit(t, l))
	waitBooked(t, l, 2)
	booked := time.Now()
	// The leader's force began before entered and ends after held is taken;
	// the follower asked before booked and its force starts after parked is.
	held, parked := time.Since(entered), time.Since(booked)
	dev.release <- struct{}{}
	if got := <-leader; got.force < held || got.park+got.force > got.wall {
		t.Errorf("leader: park %v + force %v of %v; the device held its force for %v", got.park, got.force, got.wall, held)
	}
	passForce(t, dev, nil)
	if got := <-follower; got.park < parked || got.force <= 0 || got.park+got.force > got.wall {
		t.Errorf("follower: park %v + force %v of %v; it was parked for %v before its force could start", got.park, got.force, got.wall, parked)
	}
}

// TestFollowerNotAckedByFailedForce fails the force that followers wait
// on: its leader and every follower get the error, and the log stops. No
// later force reaches the device or acknowledges a commit, because a failed
// fsync may have dropped the pages a retry would report durable.
func TestFollowerNotAckedByFailedForce(t *testing.T) {
	l, dev := newGatedLog(t)
	// Some records are in the log before the leader's force starts and are
	// committed while it runs (the failing force is the one that would have
	// covered them), some are appended behind it.
	const early, late = 3, 3
	var lsns []LSN
	for i := 0; i < early; i++ {
		lsns = append(lsns, appendCommit(t, l))
	}
	first := holdFirstForce(t, l, dev)
	for i := 0; i < late; i++ {
		lsns = append(lsns, appendCommit(t, l))
	}
	rest := commitAll(t, l, lsns)

	dev.failNext.Store(true)
	dev.release <- struct{}{}
	failed := func(who string, err error) {
		t.Helper()
		if !errors.Is(err, ErrLogFailed) || !errors.Is(err, errSyncFailed) {
			t.Fatalf("%s: err = %v, want %v wrapping %v", who, err, ErrLogFailed, errSyncFailed)
		}
	}
	failed("leader of the failed force", result(t, first))
	for range lsns {
		select {
		case err := <-rest:
			failed("follower of the failed force", err)
		case <-dev.enter:
			t.Fatal("a follower led another force after the failed one")
		case <-time.After(10 * time.Second):
			t.Fatal("follower still waiting after 10s (lost wake-up?)")
		}
	}

	// A force that reached the device now would succeed: none may.
	dev.ungated.Store(true)
	failed("commit after the failed force", commitChecked(l, lsns[0]))
	failed("FlushAll after the failed force", l.FlushAll())
	_, err := l.Append(&Record{Type: TCommit, Txn: 1})
	failed("append after the failed force", err)
	if got := l.FlushedLSN(); got != 0 {
		t.Fatalf("durable horizon %d after a failed force, want 0", got)
	}
	if n := dev.Syncs(); n != 0 {
		t.Fatalf("%d forces reached the device after the failed one", n)
	}
	if gs := l.GroupStats(); gs.Commits != 0 || gs.Forces != 0 {
		t.Fatalf("GroupStats = %+v, want no commit acknowledged", gs)
	}
}

// TestSyncCommitAcksAfterForce pins the contract under free-running
// concurrency: every Commit return implies the commit LSN is durable.
func TestSyncCommitAcksAfterForce(t *testing.T) {
	l, err := NewLog(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			lsn, err := l.Append(&Record{Type: TCommit, Txn: 2})
			if err == nil {
				err = commitChecked(l, lsn)
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if gs := l.GroupStats(); gs.Commits != n {
		t.Fatalf("GroupStats.Commits = %d, want %d", gs.Commits, n)
	}
}

// TestCloseCoversEverything stops the log with a force in flight and
// commits waiting behind it: Stop(true) must leave nothing behind — the
// waiting commits are covered by one more force and acknowledged with nil.
func TestCloseCoversEverything(t *testing.T) {
	l, dev := newGatedLog(t)
	first := holdFirstForce(t, l, dev)
	const n = 6
	rest, lsns := followers(t, l, n)

	stopped := make(chan error, 1)
	go func() { stopped <- l.Stop(true) }()

	dev.release <- struct{}{}
	if err := result(t, first); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	passForce(t, dev, rest)
	for i := 0; i < n; i++ {
		if err := result(t, rest); err != nil {
			t.Fatalf("commit waiting at Stop(true): %v", err)
		}
	}
	if err := result(t, stopped); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if got := l.FlushedLSN(); got < lsns[n-1] {
		t.Fatalf("Stop(true) left the log behind: flushed %d < lsn %d", got, lsns[n-1])
	}
	if syncs := dev.Syncs(); syncs != 2 {
		t.Fatalf("device syncs = %d, want 2", syncs)
	}
	// A commit after Stop(true) still forces, on its caller.
	dev.ungated.Store(true)
	if err := commitChecked(l, appendCommit(t, l)); err != nil {
		t.Fatalf("post-stop commit: %v", err)
	}
}

// TestAbandonWakesFollowers stops the log without a force (process-death
// simulation) while commits wait behind one in flight: they must get
// ErrPipelineStopped without waiting for it, so must later commits and
// appends, and the device must see no further force.
func TestAbandonWakesFollowers(t *testing.T) {
	l, dev := newGatedLog(t)
	first := holdFirstForce(t, l, dev)
	const n = 4
	rest, _ := followers(t, l, n)
	late := appendCommit(t, l)

	if err := l.Stop(false); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := result(t, rest); !errors.Is(err, ErrPipelineStopped) {
			t.Fatalf("follower after Stop(false): err = %v, want ErrPipelineStopped", err)
		}
	}
	dev.release <- struct{}{} // the force in flight still completes
	if err := result(t, first); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if err := l.Commit(late); !errors.Is(err, ErrPipelineStopped) {
		t.Fatalf("commit after Stop(false): err = %v, want ErrPipelineStopped", err)
	}
	if _, err := l.Append(&Record{Type: TCommit, Txn: 1}); !errors.Is(err, ErrPipelineStopped) {
		t.Fatalf("append after Stop(false): err = %v, want ErrPipelineStopped", err)
	}
	if syncs := dev.Syncs(); syncs != 1 {
		t.Fatalf("device syncs = %d, want 1 (nothing after Stop(false))", syncs)
	}
}

// TestPeriodicByteThresholdForces pins DurPeriodic's byte trigger: with a
// tiny Bytes threshold and an effectively-never ticker, an acknowledged
// commit is forced by the nudged log-writer shortly after.
func TestPeriodicByteThresholdForces(t *testing.T) {
	l, err := NewLog(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.StartPipeline(PipelineConfig{Mode: DurPeriodic, Interval: time.Hour, Bytes: 1})
	lsn, err := l.Append(&Record{Type: TCommit, Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if gs := l.GroupStats(); gs.ImmediateAcks != 1 {
		t.Fatalf("ImmediateAcks = %d, want 1", gs.ImmediateAcks)
	}
	waitFlushed(t, l, lsn)
	if err := l.Stop(true); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodicTickerForces pins the ticker trigger: appended-but-uncommitted
// records become durable within a few intervals with no explicit flush.
func TestPeriodicTickerForces(t *testing.T) {
	l, err := NewLog(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.StartPipeline(PipelineConfig{Mode: DurPeriodic, Interval: time.Millisecond})
	lsn, err := l.Append(&Record{Type: TBegin, Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFlushed(t, l, lsn)
	if err := l.Stop(true); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCommitForcesInBackground pins DurAsync: Commit acknowledges
// immediately and the nudged log-writer makes the record durable soon after.
func TestAsyncCommitForcesInBackground(t *testing.T) {
	l, err := NewLog(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.StartPipeline(PipelineConfig{Mode: DurAsync})
	lsn, err := l.Append(&Record{Type: TCommit, Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if gs := l.GroupStats(); gs.ImmediateAcks != 1 {
		t.Fatalf("ImmediateAcks = %d, want 1", gs.ImmediateAcks)
	}
	waitFlushed(t, l, lsn)
	if err := l.Stop(true); err != nil {
		t.Fatal(err)
	}
}

// TestManualFlushIntervalDisablesAutonomousForcing pins the crash-harness
// determinism knob: with a negative Interval, periodic/async start no
// writer, acks are immediate, and nothing forces until an explicit Flush.
func TestManualFlushIntervalDisablesAutonomousForcing(t *testing.T) {
	for _, mode := range []DurabilityMode{DurPeriodic, DurAsync} {
		dev := NewMemDevice()
		l, err := NewLog(dev)
		if err != nil {
			t.Fatal(err)
		}
		l.StartPipeline(PipelineConfig{Mode: mode, Interval: -1, Bytes: 1})
		lsn, err := l.Append(&Record{Type: TCommit, Txn: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if syncs := dev.Syncs(); syncs != 0 {
			t.Fatalf("%s manual: device syncs = %d, want 0 before explicit flush", mode, syncs)
		}
		if err := l.Flush(lsn); err != nil {
			t.Fatal(err)
		}
		if got := l.FlushedLSN(); got < lsn {
			t.Fatalf("%s manual: flushed %d < lsn %d after explicit flush", mode, got, lsn)
		}
		if err := l.Stop(true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParseDurabilityMode pins the flag-name round trip.
func TestParseDurabilityMode(t *testing.T) {
	for _, mode := range []DurabilityMode{DurSync, DurPeriodic, DurAsync} {
		got, err := ParseDurabilityMode(mode.String())
		if err != nil || got != mode {
			t.Fatalf("ParseDurabilityMode(%q) = %v, %v", mode.String(), got, err)
		}
	}
	if _, err := ParseDurabilityMode("fsync-maybe"); err == nil {
		t.Fatal("ParseDurabilityMode accepted an unknown mode")
	}
	for _, name := range []string{"", "group"} {
		if got, err := ParseDurabilityMode(name); err != nil || got != DurSync {
			t.Fatalf("ParseDurabilityMode(%q) = %v, %v; want DurSync", name, got, err)
		}
	}
}

// waitFlushed polls until the log's durable horizon covers lsn.
func waitFlushed(t *testing.T, l *Log, lsn LSN) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.FlushedLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for background force of LSN %d (flushed %d)", lsn, l.FlushedLSN())
		}
		time.Sleep(100 * time.Microsecond)
	}
}
