package core

import (
	"sync"
	"testing"
	"time"

	"blinktree/internal/obs"
	"blinktree/internal/wal"
)

// newSpanTree builds a tree sampling every operation's span.
func newSpanTree(t testing.TB, opts Options) *Tree {
	t.Helper()
	if !obs.Compiled {
		t.Skip("observability compiled out (obsoff)")
	}
	if opts.Observability == nil {
		opts.Observability = &obs.Config{Spans: true, SampleEvery: 1}
	}
	return newTestTree(t, opts)
}

// TestSpansPerOpClass checks that every operation class produces a span with
// the expected stages, and that each span's stage sum equals its total
// latency (the acceptance bound is 10%; the implementation makes it exact).
func TestSpansPerOpClass(t *testing.T) {
	tr := newSpanTree(t, Options{PageSize: 512, LogDevice: wal.NewMemDevice()})
	for i := 0; i < 300; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := tr.Scan(key(100), key(140), func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("scan returned %d records, want 40", n)
	}

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans with SampleEvery=1")
	}
	byOp := map[obs.Op]int{}
	for _, sp := range spans {
		byOp[sp.Op]++
		if !sp.Sampled {
			t.Fatalf("unsampled span in the sampled ring: %+v", sp)
		}
		if sp.Total <= 0 {
			t.Fatalf("span %d total %v", sp.Seq, sp.Total)
		}
		var sum time.Duration
		for st := obs.SpanStage(0); st < obs.StageCount; st++ {
			sum += sp.Stages[st]
		}
		if sum != sp.Total {
			t.Fatalf("span %d (%s): stage sum %v != total %v", sp.Seq, sp.Op, sum, sp.Total)
		}
	}
	for _, op := range []obs.Op{obs.OpSearch, obs.OpInsert, obs.OpDelete, obs.OpScan} {
		if byOp[op] == 0 {
			t.Errorf("no spans for op %s (have %v)", op, byOp)
		}
	}

	// Reads descend optimistically; writes traverse latch-coupled and append
	// to the WAL. Check the signature stages across the whole ring.
	snap := tr.Registry().Snapshot()
	if snap.SpanStages[obs.StageDescend].Count == 0 {
		t.Error("no descend stage observations from reads")
	}
	if snap.SpanStages[obs.StageTraverse].Count == 0 {
		t.Error("no traverse stage observations from writes")
	}
	if snap.SpanStages[obs.StageWALAppend].Count == 0 {
		t.Error("no wal-append stage observations from logged writes")
	}
	if snap.SpansSampled == 0 {
		t.Error("SpansSampled counter is zero")
	}
	mustVerify(t, tr)
}

// TestSpanCommitStages checks that transaction commits in the default
// durability mode record commit spans, including the force time the log's
// traced callback reports, without ever charging more than the wall time.
func TestSpanCommitStages(t *testing.T) {
	tr := newSpanTree(t, Options{
		PageSize: 512, LogDevice: wal.NewMemDevice(),
		Workers: 2,
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				txn, err := tr.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := txn.Put(key(g*1000+i), valb(i)); err != nil {
					t.Error(err)
					return
				}
				if err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var commits int
	var sawForce bool
	for _, sp := range tr.Spans() {
		if sp.Op != obs.OpCommit {
			continue
		}
		commits++
		var sum time.Duration
		for st := obs.SpanStage(0); st < obs.StageCount; st++ {
			sum += sp.Stages[st]
		}
		if sum != sp.Total {
			t.Fatalf("commit span %d: stage sum %v != total %v", sp.Seq, sum, sp.Total)
		}
		// The force stage is recorded whenever the commit waited for or led
		// a force of nonzero measured duration. At least some must be visible.
		if sp.Counts[obs.StageCommitForce] > 0 {
			sawForce = true
		}
	}
	if commits == 0 {
		t.Fatal("no commit spans sampled")
	}
	if !sawForce {
		t.Error("no commit span recorded a commit-force stage")
	}
	mustVerify(t, tr)
}

// TestSpanFlightRecorder drops the slow-op threshold to 1ns so every
// operation qualifies, and checks both rings fill.
func TestSpanFlightRecorder(t *testing.T) {
	tr := newSpanTree(t, Options{
		PageSize: 512,
		Observability: &obs.Config{
			Spans: true, SampleEvery: 1,
			SlowOpThreshold: time.Nanosecond, FlightCapacity: 16,
		},
	})
	for i := 0; i < 50; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	slow := tr.SlowSpans()
	if len(slow) != 16 {
		t.Fatalf("flight recorder holds %d, want its capacity 16", len(slow))
	}
	for _, sp := range slow {
		if !sp.Slow {
			t.Fatalf("non-slow span in flight recorder: %+v", sp)
		}
	}
	if snap := tr.Registry().Snapshot(); snap.SlowOps < 50 {
		t.Errorf("SlowOps = %d, want >= 50 (1ns threshold)", snap.SlowOps)
	}
}

// TestSpanSamplingDisabledByDefault checks a metrics-only tree keeps the
// span path entirely off: no rings, no sampled spans.
func TestSpanSamplingDisabledByDefault(t *testing.T) {
	if !obs.Compiled {
		t.Skip("observability compiled out (obsoff)")
	}
	tr := newTestTree(t, Options{Observability: &obs.Config{Metrics: true}})
	for i := 0; i < 50; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	if spans := tr.Spans(); len(spans) != 0 {
		t.Fatalf("spans sampled without Observability.Spans: %d", len(spans))
	}
}

// TestSpanLockWaitStage forces a §2.4 lock conflict between two transactions
// and checks the blocked committer's span charges a lock-wait stage.
func TestSpanLockWaitStage(t *testing.T) {
	tr := newSpanTree(t, Options{PageSize: 512, LogDevice: wal.NewMemDevice()})
	if err := tr.Put(key(1), valb(1)); err != nil {
		t.Fatal(err)
	}

	t1, err := tr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Put(key(1), valb(100)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		t2, err := tr.Begin()
		if err != nil {
			done <- err
			return
		}
		// Blocks on t1's record lock until t1 commits.
		if err := t2.Put(key(1), valb(200)); err != nil {
			done <- err
			return
		}
		done <- t2.Commit()
	}()

	time.Sleep(20 * time.Millisecond) // let t2 reach the lock wait
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var sawLockWait bool
	for _, sp := range tr.Spans() {
		if sp.Counts[obs.StageLockWait] > 0 {
			sawLockWait = true
			if sp.Stages[obs.StageLockWait] <= 0 {
				t.Errorf("lock-wait counted but zero time: %+v", sp)
			}
		}
	}
	if !sawLockWait {
		t.Error("no span recorded a lock-wait stage across a forced conflict")
	}
}
