package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one trace-ring entry. Fields beyond Seq/TS/Kind are populated
// where they make sense for the kind: SMO lifecycle events carry the
// action's page/level/epoch and the remembered-vs-observed delete-state
// values; latch and lock events carry a duration or page where known.
type Event struct {
	// Seq is the event's emission sequence number (monotone per registry,
	// including dropped events).
	Seq uint64
	// TS is the monotonic emission time, as an offset from the registry's
	// creation.
	TS time.Duration

	Kind   EventKind
	Action Action

	// Page/Level/Epoch identify the node the action originates at.
	Page  uint64
	Level uint8
	Epoch uint64

	// DXWant/DXSeen are the remembered and observed global index-delete
	// state for EvAbortDX; DDWant/DDSeen the per-parent data-delete state
	// for EvAbortDD.
	DXWant, DXSeen uint64
	DDWant, DDSeen uint64

	// Dur is a duration where the kind has one (EvLatchWait).
	Dur time.Duration
}

// Registry is one tree's metrics-and-trace sink. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so instrumentation
// sites need only a single pointer test.
type Registry struct {
	cfg   Config
	start time.Time // monotonic base for Event.TS

	ops     [OpCount]Histogram
	actions [ActCount]Histogram

	pageLoad  Histogram // buffer pool misses: store read + decode
	writeBack Histogram // buffer pool dirty write-backs
	logAppend Histogram // WAL record appends
	logFlush  Histogram // WAL device syncs
	lockWait  Histogram // blocking record-lock waits

	groupForce Histogram // commit-pipeline coalesced forces (batch wall time)
	groupAck   Histogram // delay from Commit to its ack after the covering force

	// groupBatch* account the commit-pipeline batch sizes (commits per
	// force): total commits, forces that carried commits, and the largest
	// single batch.
	groupBatchSum   atomic.Uint64
	groupBatchCount atomic.Uint64
	groupBatchMax   atomic.Uint64

	longWaits atomic.Uint64 // latch waits >= cfg.LatchWaitThreshold

	// Span sampling state: every sampleCtr hit on cfg.SampleEvery starts a
	// span; finished spans feed spanStages, the sampled-span ring and —
	// past slowNS — the slow-op flight recorder.
	spanStages   [StageCount]Histogram
	sampleCtr    atomic.Uint64
	spanSeq      atomic.Uint64
	spansSampled atomic.Uint64
	slowOps      atomic.Uint64
	slowNS       atomic.Int64
	spanRing     opRing
	flightRing   opRing

	ring struct {
		mu      sync.Mutex
		buf     []Event
		next    int
		full    bool
		seq     uint64
		dropped uint64
	}
}

// opRing is a bounded, mutex-guarded, drop-oldest ring of finished spans.
// Pushes happen only on sampled or slow operations, so contention is
// negligible.
type opRing struct {
	mu   sync.Mutex
	buf  []OpTrace
	next int
	full bool
}

func (g *opRing) push(t OpTrace) {
	g.mu.Lock()
	g.buf[g.next] = t
	g.next++
	if g.next == len(g.buf) {
		g.next = 0
		g.full = true
	}
	g.mu.Unlock()
}

func (g *opRing) snapshot() []OpTrace {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []OpTrace
	if g.full {
		out = make([]OpTrace, 0, len(g.buf))
		out = append(out, g.buf[g.next:]...)
		out = append(out, g.buf[:g.next]...)
	} else {
		out = append(out, g.buf[:g.next]...)
	}
	return out
}

// New builds a registry for cfg. Returns nil when cfg enables nothing, so
// callers can keep the nil-pointer fast path.
func New(cfg Config) *Registry {
	if !cfg.Metrics && !cfg.Trace && !cfg.Spans {
		return nil
	}
	cfg = cfg.withDefaults()
	r := &Registry{cfg: cfg, start: time.Now()}
	if cfg.Trace {
		r.ring.buf = make([]Event, cfg.TraceCapacity)
	}
	if cfg.Spans {
		r.spanRing.buf = make([]OpTrace, cfg.SpanCapacity)
		r.flightRing.buf = make([]OpTrace, cfg.FlightCapacity)
		if cfg.SlowOpThreshold > 0 {
			r.slowNS.Store(int64(cfg.SlowOpThreshold))
		} else {
			// Adaptive: start at the 1ms floor; SpanEnd re-derives the
			// p999-based threshold as samples accumulate.
			r.slowNS.Store(int64(time.Millisecond))
		}
	}
	return r
}

// MetricsOn reports whether latency histograms are enabled.
func (r *Registry) MetricsOn() bool { return r != nil && r.cfg.Metrics }

// TraceOn reports whether the trace ring is enabled.
func (r *Registry) TraceOn() bool { return r != nil && r.cfg.Trace }

// LatchWaitThreshold returns the configured long-latch-wait threshold.
func (r *Registry) LatchWaitThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.LatchWaitThreshold
}

// SpansOn reports whether span sampling is enabled.
func (r *Registry) SpansOn() bool { return r != nil && r.cfg.Spans }

// SlowOpThresholdNS returns the current slow-op threshold in nanoseconds
// (fixed from the config, or the adaptive p999-derived value).
func (r *Registry) SlowOpThresholdNS() int64 {
	if r == nil {
		return 0
	}
	return r.slowNS.Load()
}

// SpanStart returns a new span when this operation is selected by the
// sampler, nil otherwise (and always nil when spans are off). The counter
// is a single shared atomic: with SampleEvery=N, one in N operations
// tree-wide is sampled regardless of which goroutine runs it.
func (r *Registry) SpanStart(op Op) *Span {
	if r == nil || !r.cfg.Spans {
		return nil
	}
	if r.sampleCtr.Add(1)%uint64(r.cfg.SampleEvery) != 0 {
		return nil
	}
	return &Span{op: op, start: time.Now()}
}

// SpanEnd finishes a sampled span: the uninstrumented remainder goes to
// StageOther (so the stage sum equals d exactly), stage aggregates feed the
// per-stage histograms, the trace enters the sampled-span ring, and — at or
// above the slow-op threshold — the flight recorder.
func (r *Registry) SpanEnd(sp *Span, op Op, d time.Duration) {
	if r == nil || sp == nil {
		return
	}
	sp.ExitPhase() // defensive: a panic path could leave a phase open
	if d < 0 {
		d = 0
	}
	var sum time.Duration
	for st := SpanStage(0); st < StageOther; st++ {
		sum += time.Duration(sp.stages[st])
	}
	if other := d - sum; other > 0 {
		sp.stages[StageOther] = int64(other)
		sp.counts[StageOther] = 1
	}
	t := OpTrace{
		Seq:       r.spanSeq.Add(1),
		Op:        op,
		Start:     time.Since(r.start) - d,
		Total:     d,
		Restarts:  sp.restarts,
		Fallback:  sp.fallback,
		Sampled:   true,
		Dropped:   sp.dropped,
		Intervals: sp.intervals,
	}
	if t.Start < 0 {
		t.Start = 0
	}
	for st := SpanStage(0); st < StageCount; st++ {
		t.Stages[st] = time.Duration(sp.stages[st])
		t.Counts[st] = sp.counts[st]
		if sp.counts[st] > 0 {
			r.spanStages[st].Observe(t.Stages[st])
		}
	}
	n := r.spansSampled.Add(1)
	if r.cfg.SlowOpThreshold <= 0 && n%64 == 0 {
		r.retuneSlowThreshold()
	}
	if int64(d) >= r.slowNS.Load() {
		t.Slow = true
		r.slowOps.Add(1)
		r.flightRing.push(t)
	}
	r.spanRing.push(t)
}

// SlowOp records an *unsampled* operation that met the slow-op threshold:
// a stage-less stub (all time in StageOther) enters the flight recorder so
// slow outliers are captured even between samples.
func (r *Registry) SlowOp(op Op, d time.Duration) {
	if r == nil || !r.cfg.Spans || int64(d) < r.slowNS.Load() {
		return
	}
	r.slowOps.Add(1)
	t := OpTrace{
		Seq:   r.spanSeq.Add(1),
		Op:    op,
		Start: time.Since(r.start) - d,
		Total: d,
		Slow:  true,
	}
	if t.Start < 0 {
		t.Start = 0
	}
	t.Stages[StageOther] = d
	t.Counts[StageOther] = 1
	r.flightRing.push(t)
}

// retuneSlowThreshold re-derives the adaptive slow-op threshold as the p999
// of the merged per-operation histograms, floored at 1ms.
func (r *Registry) retuneSlowThreshold() {
	var merged HistogramSnapshot
	for i := range r.ops {
		merged = merged.Merge(r.ops[i].Snapshot())
	}
	thr := merged.Quantile(0.999)
	if thr < time.Millisecond {
		thr = time.Millisecond
	}
	r.slowNS.Store(int64(thr))
}

// Spans returns the sampled-span ring's contents, oldest first.
func (r *Registry) Spans() []OpTrace {
	if r == nil || !r.cfg.Spans {
		return nil
	}
	return r.spanRing.snapshot()
}

// SlowSpans returns the slow-op flight recorder's contents, oldest first.
func (r *Registry) SlowSpans() []OpTrace {
	if r == nil || !r.cfg.Spans {
		return nil
	}
	return r.flightRing.snapshot()
}

// ObserveOp records one foreground operation's latency.
func (r *Registry) ObserveOp(op Op, d time.Duration) {
	if r == nil || !r.cfg.Metrics || op >= OpCount {
		return
	}
	r.ops[op].Observe(d)
}

// ObserveAction records one maintenance action's processing latency.
func (r *Registry) ObserveAction(a Action, d time.Duration) {
	if r == nil || !r.cfg.Metrics || a >= ActCount {
		return
	}
	r.actions[a].Observe(d)
}

// ObserveLongWait counts a latch wait at or above the threshold.
func (r *Registry) ObserveLongWait(d time.Duration) {
	if r == nil {
		return
	}
	r.longWaits.Add(1)
	if r.cfg.Trace {
		r.Emit(Event{Kind: EvLatchWait, Dur: d})
	}
}

// ObserveLockWait records one blocking record-lock wait.
func (r *Registry) ObserveLockWait(d time.Duration) {
	if r == nil || !r.cfg.Metrics {
		return
	}
	r.lockWait.Observe(d)
}

// PageLoad implements the buffer pool's Observer.
func (r *Registry) PageLoad(d time.Duration) {
	if r == nil || !r.cfg.Metrics {
		return
	}
	r.pageLoad.Observe(d)
}

// WriteBack implements the buffer pool's Observer.
func (r *Registry) WriteBack(d time.Duration) {
	if r == nil || !r.cfg.Metrics {
		return
	}
	r.writeBack.Observe(d)
}

// LogAppend implements the WAL's Observer.
func (r *Registry) LogAppend(d time.Duration) {
	if r == nil || !r.cfg.Metrics {
		return
	}
	r.logAppend.Observe(d)
}

// LogFlush implements the WAL's Observer.
func (r *Registry) LogFlush(d time.Duration) {
	if r == nil || !r.cfg.Metrics {
		return
	}
	r.logFlush.Observe(d)
}

// LogGroupForce implements the WAL's GroupObserver: one log force that
// covered waiting commits, with their number (its group size) and the
// force's wall time.
func (r *Registry) LogGroupForce(batch int, d time.Duration) {
	if r == nil || !r.cfg.Metrics {
		return
	}
	r.groupForce.Observe(d)
	if batch <= 0 {
		return
	}
	n := uint64(batch)
	r.groupBatchSum.Add(n)
	r.groupBatchCount.Add(1)
	for {
		max := r.groupBatchMax.Load()
		if n <= max || r.groupBatchMax.CompareAndSwap(max, n) {
			return
		}
	}
}

// LogGroupAck implements the WAL's GroupObserver: one commit's delay from
// Commit to its acknowledgement after the covering force.
func (r *Registry) LogGroupAck(d time.Duration) {
	if r == nil || !r.cfg.Metrics {
		return
	}
	r.groupAck.Observe(d)
}

// Emit appends a trace event, stamping Seq and TS. The ring is bounded:
// once full the oldest event is overwritten and counted as dropped. Events
// are rare (SMO transitions and distress episodes, not per-operation), so a
// mutex-guarded ring costs nothing measurable.
func (r *Registry) Emit(e Event) {
	if r == nil || !r.cfg.Trace {
		return
	}
	e.TS = time.Since(r.start)
	rg := &r.ring
	rg.mu.Lock()
	rg.seq++
	e.Seq = rg.seq
	if rg.full {
		rg.dropped++
	}
	rg.buf[rg.next] = e
	rg.next++
	if rg.next == len(rg.buf) {
		rg.next = 0
		rg.full = true
	}
	rg.mu.Unlock()
}

// Events returns the ring's contents, oldest first.
func (r *Registry) Events() []Event {
	if r == nil || !r.cfg.Trace {
		return nil
	}
	rg := &r.ring
	rg.mu.Lock()
	defer rg.mu.Unlock()
	var out []Event
	if rg.full {
		out = make([]Event, 0, len(rg.buf))
		out = append(out, rg.buf[rg.next:]...)
		out = append(out, rg.buf[:rg.next]...)
	} else {
		out = append(out, rg.buf[:rg.next]...)
	}
	return out
}

// Snapshot is a point-in-time copy of every histogram and trace counter.
type Snapshot struct {
	// Ops holds one histogram per Op (index with OpSearch..OpScan).
	Ops [OpCount]HistogramSnapshot
	// Actions holds one histogram per maintenance Action.
	Actions [ActCount]HistogramSnapshot

	PageLoad  HistogramSnapshot
	WriteBack HistogramSnapshot
	LogAppend HistogramSnapshot
	LogFlush  HistogramSnapshot
	LockWait  HistogramSnapshot

	// GroupForce/GroupAck are the wall time of forces that covered waiting
	// commits and the commits' ack delay; GroupBatch* account group sizes
	// (total commits over counted forces, and the largest batch).
	GroupForce      HistogramSnapshot
	GroupAck        HistogramSnapshot
	GroupBatchSum   uint64
	GroupBatchCount uint64
	GroupBatchMax   uint64

	// LatchLongWaits counts blocking latch acquisitions at or above the
	// configured threshold.
	LatchLongWaits uint64

	// SpanStages holds one histogram per span stage: the exclusive time a
	// sampled operation spent in that stage (one observation per sampled op
	// that touched the stage).
	SpanStages [StageCount]HistogramSnapshot
	// SpansSampled counts finished sampled spans; SlowOps counts
	// flight-recorder entries (sampled and stub); SlowOpThresholdNS is the
	// current slow-op threshold.
	SpansSampled      uint64
	SlowOps           uint64
	SlowOpThresholdNS int64

	// TraceSeq is the total number of events emitted; TraceDropped how many
	// the bounded ring overwrote.
	TraceSeq     uint64
	TraceDropped uint64
}

// Snapshot collects the registry's current state; nil on a nil receiver.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{LatchLongWaits: r.longWaits.Load()}
	for i := range r.ops {
		s.Ops[i] = r.ops[i].Snapshot()
	}
	for i := range r.actions {
		s.Actions[i] = r.actions[i].Snapshot()
	}
	s.PageLoad = r.pageLoad.Snapshot()
	s.WriteBack = r.writeBack.Snapshot()
	s.LogAppend = r.logAppend.Snapshot()
	s.LogFlush = r.logFlush.Snapshot()
	s.LockWait = r.lockWait.Snapshot()
	s.GroupForce = r.groupForce.Snapshot()
	s.GroupAck = r.groupAck.Snapshot()
	s.GroupBatchSum = r.groupBatchSum.Load()
	s.GroupBatchCount = r.groupBatchCount.Load()
	s.GroupBatchMax = r.groupBatchMax.Load()
	for i := range r.spanStages {
		s.SpanStages[i] = r.spanStages[i].Snapshot()
	}
	s.SpansSampled = r.spansSampled.Load()
	s.SlowOps = r.slowOps.Load()
	s.SlowOpThresholdNS = r.slowNS.Load()
	rg := &r.ring
	rg.mu.Lock()
	s.TraceSeq = rg.seq
	s.TraceDropped = rg.dropped
	rg.mu.Unlock()
	return s
}
