package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// spanRegistry builds a span-sampling registry for tests.
func spanRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	cfg.Spans = true
	r := New(cfg)
	if r == nil {
		t.Fatal("New returned nil with Spans enabled")
	}
	return r
}

func TestSpanNilReceiverSafe(t *testing.T) {
	var sp *Span
	if !sp.Now().IsZero() {
		t.Error("nil span Now() should be zero")
	}
	// Every method must be callable on nil without panicking.
	sp.StageSince(StageLatchS, 0, time.Now())
	sp.EnterPhase(StageDescend)
	sp.ExitPhase()
	sp.Restart()
	sp.Fallback()
	sp.StageCommit(time.Millisecond, time.Millisecond)

	var r *Registry
	if got := r.SpanStart(OpSearch); got != nil {
		t.Error("nil registry SpanStart should return nil")
	}
	r.SpanEnd(nil, OpSearch, time.Millisecond)
	r.SlowOp(OpSearch, time.Hour)
	if r.Spans() != nil || r.SlowSpans() != nil {
		t.Error("nil registry rings should be nil")
	}
}

// TestSpanStageSumEqualsTotal is the core accounting invariant: after
// SpanEnd, the per-stage times (StageOther included) sum to the operation's
// total latency exactly.
func TestSpanStageSumEqualsTotal(t *testing.T) {
	r := spanRegistry(t, Config{SampleEvery: 1})
	sp := r.SpanStart(OpInsert)
	if sp == nil {
		t.Fatal("SampleEvery=1 must sample every operation")
	}
	start := time.Now()

	p0 := time.Now()
	sp.EnterPhase(StageTraverse)
	lt0 := sp.Now()
	time.Sleep(2 * time.Millisecond) // a "latch acquire" inside the phase
	sp.StageSince(StageLatchX, 1, lt0)
	time.Sleep(time.Millisecond) // structural time charged to the phase
	sp.ExitPhase()
	phase := time.Since(p0) // the phase's wall time, latch wait included

	at0 := sp.Now()
	time.Sleep(time.Millisecond)
	sp.StageSince(StageWALAppend, 0, at0)

	total := time.Since(start) + 500*time.Microsecond // uninstrumented tail
	r.SpanEnd(sp, OpInsert, total)

	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	tr := spans[0]
	if tr.Op != OpInsert || !tr.Sampled || tr.Total != total {
		t.Fatalf("trace = %+v", tr)
	}
	var sum time.Duration
	for st := SpanStage(0); st < StageCount; st++ {
		if tr.Stages[st] < 0 {
			t.Errorf("stage %s negative: %v", st, tr.Stages[st])
		}
		sum += tr.Stages[st]
	}
	if sum != total {
		t.Errorf("stage sum %v != total %v", sum, total)
	}
	// The latch wait must not be double-charged to the traverse phase:
	// traverse is exclusive, so it fits in the phase's wall time with the
	// latch wait taken out, however long the sleeps really took.
	if tr.Stages[StageLatchX] < 2*time.Millisecond {
		t.Errorf("latch-x = %v, want >= 2ms", tr.Stages[StageLatchX])
	}
	if tr.Stages[StageTraverse] > phase-tr.Stages[StageLatchX] {
		t.Errorf("traverse = %v charged inclusively (phase %v, latch-x %v)", tr.Stages[StageTraverse], phase, tr.Stages[StageLatchX])
	}
	if tr.Stages[StageOther] <= 0 {
		t.Errorf("other = %v, want > 0 (uninstrumented tail)", tr.Stages[StageOther])
	}
	if tr.Counts[StageLatchX] != 1 || tr.Counts[StageWALAppend] != 1 {
		t.Errorf("counts = %v", tr.Counts)
	}
}

func TestSpanSamplingOneInN(t *testing.T) {
	r := spanRegistry(t, Config{SampleEvery: 4})
	var sampled int
	for i := 0; i < 100; i++ {
		if sp := r.SpanStart(OpSearch); sp != nil {
			sampled++
			r.SpanEnd(sp, OpSearch, time.Microsecond)
		}
	}
	if sampled != 25 {
		t.Errorf("sampled %d of 100 with SampleEvery=4, want 25", sampled)
	}
}

func TestSpanRingBounded(t *testing.T) {
	r := spanRegistry(t, Config{SampleEvery: 1, SpanCapacity: 8})
	for i := 0; i < 20; i++ {
		sp := r.SpanStart(OpSearch)
		r.SpanEnd(sp, OpSearch, time.Duration(i+1)*time.Microsecond)
	}
	spans := r.Spans()
	if len(spans) != 8 {
		t.Fatalf("ring holds %d spans, want capacity 8", len(spans))
	}
	// Oldest-first: the survivors are ops 13..20 (1-based).
	for i, sp := range spans {
		if want := time.Duration(13+i) * time.Microsecond; sp.Total != want {
			t.Errorf("span[%d].Total = %v, want %v", i, sp.Total, want)
		}
	}
}

func TestSlowOpFlightRecorder(t *testing.T) {
	r := spanRegistry(t, Config{SampleEvery: 1, SlowOpThreshold: time.Millisecond, FlightCapacity: 4})
	// An unsampled op below the threshold is ignored...
	r.SlowOp(OpSearch, 500*time.Microsecond)
	// ...and above it lands as a stage-less stub.
	r.SlowOp(OpDelete, 3*time.Millisecond)
	// A sampled span above the threshold is copied in with full stages.
	sp := r.SpanStart(OpInsert)
	r.SpanEnd(sp, OpInsert, 2*time.Millisecond)
	// A sampled span below the threshold stays out of the flight recorder.
	sp = r.SpanStart(OpSearch)
	r.SpanEnd(sp, OpSearch, 10*time.Microsecond)

	slow := r.SlowSpans()
	if len(slow) != 2 {
		t.Fatalf("flight recorder holds %d, want 2: %+v", len(slow), slow)
	}
	if slow[0].Op != OpDelete || slow[0].Sampled || !slow[0].Slow {
		t.Errorf("stub = %+v", slow[0])
	}
	if slow[0].Stages[StageOther] != 3*time.Millisecond {
		t.Errorf("stub should charge everything to other: %v", slow[0].Stages)
	}
	if slow[1].Op != OpInsert || !slow[1].Sampled || !slow[1].Slow {
		t.Errorf("sampled slow = %+v", slow[1])
	}
	if got := r.Snapshot().SlowOps; got != 2 {
		t.Errorf("SlowOps = %d, want 2", got)
	}
}

func TestStageCommitOffsets(t *testing.T) {
	r := spanRegistry(t, Config{SampleEvery: 1})
	sp := r.SpanStart(OpCommit)
	time.Sleep(time.Millisecond)
	sp.StageCommit(2*time.Millisecond, 500*time.Microsecond)
	r.SpanEnd(sp, OpCommit, 4*time.Millisecond)
	tr := r.Spans()[0]
	if tr.Stages[StageCommitPark] != 2*time.Millisecond {
		t.Errorf("park = %v", tr.Stages[StageCommitPark])
	}
	if tr.Stages[StageCommitForce] != 500*time.Microsecond {
		t.Errorf("force = %v", tr.Stages[StageCommitForce])
	}
	// Zero durations record nothing (immediate-ack durability modes).
	sp = r.SpanStart(OpCommit)
	sp.StageCommit(0, 0)
	r.SpanEnd(sp, OpCommit, time.Microsecond)
	tr = r.Spans()[1]
	if tr.Counts[StageCommitPark] != 0 || tr.Counts[StageCommitForce] != 0 {
		t.Errorf("zero commit stages recorded: %v", tr.Counts)
	}
}

func TestSpanIntervalBound(t *testing.T) {
	r := spanRegistry(t, Config{SampleEvery: 1})
	sp := r.SpanStart(OpSearch)
	for i := 0; i < maxSpanIntervals+10; i++ {
		sp.StageSince(StageBufFetch, 0, time.Now().Add(-time.Microsecond))
	}
	r.SpanEnd(sp, OpSearch, time.Millisecond)
	tr := r.Spans()[0]
	if len(tr.Intervals) != maxSpanIntervals {
		t.Errorf("intervals = %d, want bound %d", len(tr.Intervals), maxSpanIntervals)
	}
	if tr.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", tr.Dropped)
	}
	// Aggregates keep counting past the interval bound.
	if got := tr.Counts[StageBufFetch]; got != maxSpanIntervals+10 {
		t.Errorf("buf-fetch count = %d, want %d", got, maxSpanIntervals+10)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := spanRegistry(t, Config{SampleEvery: 1})
	sp := r.SpanStart(OpInsert)
	sp.EnterPhase(StageTraverse)
	lt0 := sp.Now()
	time.Sleep(time.Millisecond)
	sp.StageSince(StageLatchX, 2, lt0)
	sp.ExitPhase()
	sp.Restart()
	sp.Fallback()
	r.SpanEnd(sp, OpInsert, 2*time.Millisecond)
	sp = r.SpanStart(OpScan)
	r.SpanEnd(sp, OpScan, 30*time.Microsecond)
	want := r.Spans()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-trip count %d != %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Seq != w.Seq || g.Op != w.Op || g.Total != w.Total ||
			g.Restarts != w.Restarts || g.Fallback != w.Fallback ||
			g.Slow != w.Slow || g.Sampled != w.Sampled || g.Dropped != w.Dropped {
			t.Errorf("span %d header mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		if g.Stages != w.Stages {
			t.Errorf("span %d stages mismatch:\n got %v\nwant %v", i, g.Stages, w.Stages)
		}
		if g.Counts != w.Counts {
			t.Errorf("span %d counts mismatch:\n got %v\nwant %v", i, g.Counts, w.Counts)
		}
	}
}

func TestAttributeTail(t *testing.T) {
	mk := func(total, latch time.Duration) OpTrace {
		var tr OpTrace
		tr.Op = OpSearch
		tr.Total = total
		tr.Stages[StageLatchS] = latch
		tr.Counts[StageLatchS] = 1
		tr.Stages[StageOther] = total - latch
		tr.Counts[StageOther] = 1
		return tr
	}
	var spans []OpTrace
	for i := 0; i < 99; i++ {
		spans = append(spans, mk(time.Millisecond, 100*time.Microsecond))
	}
	// One outlier dominated by latch waits.
	spans = append(spans, mk(100*time.Millisecond, 90*time.Millisecond))

	thr, tail, shares := AttributeTail(spans, 0.99)
	if thr != 100*time.Millisecond || tail != 1 {
		t.Fatalf("thr=%v tail=%d, want 100ms/1", thr, tail)
	}
	if len(shares) == 0 || shares[0].Stage != StageLatchS {
		t.Fatalf("top tail stage = %+v, want latch-s", shares)
	}
	if shares[0].Share < 0.85 || shares[0].Share > 0.95 {
		t.Errorf("latch-s share = %v, want ~0.9", shares[0].Share)
	}

	if _, tail, _ := AttributeTail(nil, 0.99); tail != 0 {
		t.Errorf("empty input tail = %d", tail)
	}
	// q=1 clamps to the max element.
	thr, tail, _ = AttributeTail(spans, 1)
	if thr != 100*time.Millisecond || tail != 1 {
		t.Errorf("q=1: thr=%v tail=%d", thr, tail)
	}
}

func TestWriteAttributionOutput(t *testing.T) {
	var sb strings.Builder
	if err := WriteAttribution(&sb, nil); err != nil {
		t.Fatalf("empty: %v", err)
	}
	if !strings.Contains(sb.String(), "no sampled spans") {
		t.Errorf("empty output = %q", sb.String())
	}

	var tr OpTrace
	tr.Op = OpSearch
	tr.Total = time.Millisecond
	tr.Stages[StageTraverse] = 600 * time.Microsecond
	tr.Counts[StageTraverse] = 1
	tr.Stages[StageOther] = 400 * time.Microsecond
	tr.Counts[StageOther] = 1
	sb.Reset()
	if err := WriteAttribution(&sb, []OpTrace{tr}); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"stage coverage 100.0%", "traverse", "60.0%", "other", "40.0%",
		"p99 tail: 1 ops", "p999 tail: 1 ops",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution output missing %q:\n%s", want, out)
		}
	}
}

// TestSpanConcurrent runs sampled spans from many goroutines; under -race
// this validates that the shared sampling counter, rings and histograms are
// safe while each span stays goroutine-local.
func TestSpanConcurrent(t *testing.T) {
	r := spanRegistry(t, Config{SampleEvery: 2, SpanCapacity: 4096})
	var wg sync.WaitGroup
	const (
		workers = 8
		perG    = 500
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := r.SpanStart(OpSearch)
				if sp == nil {
					continue
				}
				t0 := sp.Now()
				sp.StageSince(StageBufFetch, 0, t0)
				r.SpanEnd(sp, OpSearch, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().SpansSampled; got != workers*perG/2 {
		t.Errorf("sampled %d, want %d", got, workers*perG/2)
	}
	if got := len(r.Spans()); got != workers*perG/2 {
		t.Errorf("ring holds %d", got)
	}
}
