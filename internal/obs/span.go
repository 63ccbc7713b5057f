package obs

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// SpanStage identifies one timed stage of a sampled operation's span. The
// stage times stored on a span are *exclusive*: the structural stages
// (StageDescend, StageTraverse) are charged only the time not already
// attributed to a leaf stage nested inside them, so the per-stage sum of a
// finished span equals its total latency exactly (StageOther absorbs the
// uninstrumented remainder).
type SpanStage uint8

// Span stages, in hot-path order.
const (
	// StageDescend is the optimistic (latch-free) descent: route reads,
	// version validations and side steps, exclusive of nested fetch/latch
	// stages. Restarted attempts accumulate.
	StageDescend SpanStage = iota
	// StageTraverse is the pessimistic latch-coupled traversal (including
	// the fallback after an exhausted optimistic budget), exclusive of
	// nested fetch/latch stages.
	StageTraverse
	// StageLatchS is time spent acquiring shared-mode node latches.
	StageLatchS
	// StageLatchX is time spent acquiring update/exclusive-mode node
	// latches, including update→exclusive promotions.
	StageLatchX
	// StageBufFetch is buffer-pool fetch time for resident pages (hits).
	StageBufFetch
	// StagePageLoad is buffer-pool miss time: store read plus page decode.
	StagePageLoad
	// StageLockWait is time blocked in the lock manager after a §2.4
	// no-wait denial (release latches, wait for the lock, re-latch is
	// charged to its own latch/fetch stages).
	StageLockWait
	// StageWALAppend is write-ahead-log record append time (buffering, not
	// forcing).
	StageWALAppend
	// StageCommitPark is the commit's wait for the device force that covers
	// it to start: a force already in flight has to end first.
	StageCommitPark
	// StageCommitForce is the device force (fsync) covering the commit,
	// whether this goroutine led it or shared it.
	StageCommitForce
	// StageOther is the uninstrumented remainder: leaf search, record
	// copies, allocation, scheduling gaps. Computed at span end as total
	// minus the sum of the recorded stages.
	StageOther
	// StageCount is the number of span stages.
	StageCount
)

// String returns the lowercase stage name used in metric labels, trace
// events and the attribution table.
func (s SpanStage) String() string {
	switch s {
	case StageDescend:
		return "descend"
	case StageTraverse:
		return "traverse"
	case StageLatchS:
		return "latch-s"
	case StageLatchX:
		return "latch-x"
	case StageBufFetch:
		return "buf-fetch"
	case StagePageLoad:
		return "page-load"
	case StageLockWait:
		return "lock-wait"
	case StageWALAppend:
		return "wal-append"
	case StageCommitPark:
		return "commit-park"
	case StageCommitForce:
		return "commit-force"
	case StageOther:
		return "other"
	default:
		return "stage?"
	}
}

// stageFromString is the inverse of SpanStage.String, for trace decode.
func stageFromString(s string) SpanStage {
	for st := SpanStage(0); st < StageCount; st++ {
		if st.String() == s {
			return st
		}
	}
	return StageCount
}

// maxSpanIntervals bounds the per-span interval list (the span "tree" shown
// in the Chrome trace). Stage aggregates keep accumulating past the bound;
// only the timeline detail is dropped (counted in OpTrace.Dropped).
const maxSpanIntervals = 64

// Interval is one timed episode inside a span, positioned relative to the
// span's start. Structural phases (descend/traverse) record their wall
// extent so nested leaf intervals render inside them; the aggregate stage
// times remain exclusive.
type Interval struct {
	// Stage is the stage this episode belongs to.
	Stage SpanStage
	// Level is the tree level involved, when known (0 = leaf).
	Level uint8
	// Start is the offset from the span's start.
	Start time.Duration
	// Dur is the episode's duration.
	Dur time.Duration
}

// Span is the mutable per-operation trace context carried through the hot
// path by a sampled operation. It is owned by a single goroutine (the one
// running the operation) and is not safe for concurrent use. All methods
// are nil-receiver safe so call sites stay branch-free.
type Span struct {
	op    Op
	start time.Time

	stages [StageCount]int64 // exclusive nanoseconds per stage
	counts [StageCount]uint32

	restarts uint32
	fallback bool

	intervals []Interval
	dropped   uint32

	// inner accumulates leaf-stage time so an enclosing structural phase
	// can subtract it and charge only its exclusive share.
	inner      int64
	phaseOpen  bool
	phaseStage SpanStage
	phaseT0    time.Time
	phaseInner int64
}

// Now returns the current time for a live span and the zero time for a nil
// one, so `t0 := sp.Now()` costs nothing when the operation is unsampled.
func (s *Span) Now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// StageSince charges now−t0 to stage st (level lv) and records the
// interval. A zero t0 (from a nil-span Now) is a no-op.
func (s *Span) StageSince(st SpanStage, lv uint8, t0 time.Time) {
	if s == nil || t0.IsZero() {
		return
	}
	now := time.Now()
	d := now.Sub(t0)
	if d < 0 {
		d = 0
	}
	s.addLeaf(st, lv, now.Sub(s.start)-d, d)
}

// addLeaf records a leaf-stage episode: aggregate, inner accounting for the
// enclosing phase, and the bounded interval list.
func (s *Span) addLeaf(st SpanStage, lv uint8, off, d time.Duration) {
	s.stages[st] += int64(d)
	s.counts[st]++
	if s.phaseOpen {
		s.inner += int64(d)
	}
	s.addInterval(Interval{Stage: st, Level: lv, Start: off, Dur: d})
}

func (s *Span) addInterval(iv Interval) {
	if iv.Start < 0 {
		iv.Start = 0
	}
	if len(s.intervals) < maxSpanIntervals {
		s.intervals = append(s.intervals, iv)
	} else {
		s.dropped++
	}
}

// EnterPhase opens a structural phase (descend or traverse). Leaf stages
// recorded until ExitPhase are subtracted from the phase's charge so the
// phase aggregate stays exclusive. Phases do not nest; a second EnterPhase
// while one is open is ignored (its ExitPhase then closes the outer one).
func (s *Span) EnterPhase(st SpanStage) {
	if s == nil || s.phaseOpen {
		return
	}
	s.phaseOpen = true
	s.phaseStage = st
	s.phaseT0 = time.Now()
	s.phaseInner = s.inner
}

// ExitPhase closes the open structural phase, charging it its wall time
// minus the leaf-stage time recorded inside it. The interval keeps the wall
// extent so the Chrome trace nests leaf episodes under the phase.
func (s *Span) ExitPhase() {
	if s == nil || !s.phaseOpen {
		return
	}
	s.phaseOpen = false
	now := time.Now()
	wall := now.Sub(s.phaseT0)
	if wall < 0 {
		wall = 0
	}
	excl := wall - time.Duration(s.inner-s.phaseInner)
	if excl < 0 {
		excl = 0
	}
	s.stages[s.phaseStage] += int64(excl)
	s.counts[s.phaseStage]++
	s.addInterval(Interval{Stage: s.phaseStage, Start: now.Sub(s.start) - wall, Dur: wall})
}

// Restart counts an optimistic-descent restart (a failed version
// validation forcing the attempt over).
func (s *Span) Restart() {
	if s != nil {
		s.restarts++
	}
}

// Fallback marks that the optimistic descent exhausted its budget and the
// operation fell back to the pessimistic traversal.
func (s *Span) Fallback() {
	if s != nil {
		s.fallback = true
	}
}

// StageCommit charges the park and force durations the log reports for a
// commit (wal.Log.CommitTraced's callback, on the committing goroutine).
func (s *Span) StageCommit(park, force time.Duration) {
	if s == nil {
		return
	}
	end := time.Since(s.start)
	if force > 0 {
		s.stages[StageCommitForce] += int64(force)
		s.counts[StageCommitForce]++
		s.addInterval(Interval{Stage: StageCommitForce, Start: end - force, Dur: force})
	}
	if park > 0 {
		s.stages[StageCommitPark] += int64(park)
		s.counts[StageCommitPark]++
		s.addInterval(Interval{Stage: StageCommitPark, Start: end - force - park, Dur: park})
	}
}

// OpTrace is a finished span: the immutable record stored in the sampled
// span ring and the slow-op flight recorder, and the unit of the Chrome
// trace export.
type OpTrace struct {
	// Seq is the trace's sequence number (per registry, sampled and slow
	// stubs share the counter).
	Seq uint64
	// Op is the operation class.
	Op Op
	// Start is the operation's start offset from the registry's creation.
	Start time.Duration
	// Total is the operation's wall latency.
	Total time.Duration
	// Stages holds the exclusive per-stage time; the entries sum to Total.
	Stages [StageCount]time.Duration
	// Counts holds per-stage episode counts.
	Counts [StageCount]uint32
	// Restarts is the optimistic-descent restart count.
	Restarts uint32
	// Fallback reports whether the op fell back to pessimistic traversal.
	Fallback bool
	// Slow reports whether the op met the slow-op threshold (and was
	// therefore copied into the flight recorder).
	Slow bool
	// Sampled distinguishes a fully-instrumented sampled span from the
	// stage-less stub recorded when an unsampled op turned out slow.
	Sampled bool
	// Dropped counts timeline intervals discarded past the per-span bound.
	Dropped uint32
	// Intervals is the bounded timeline of episodes within the span.
	Intervals []Interval
}

// StageShare is one stage's row in a tail-latency attribution: how much of
// the tail ops' total time the stage accounts for.
type StageShare struct {
	// Stage is the attributed stage.
	Stage SpanStage
	// Time is the stage's summed exclusive time across the tail ops.
	Time time.Duration
	// Share is Time as a fraction of the tail ops' summed total latency.
	Share float64
	// Count is the stage's summed episode count across the tail ops.
	Count uint64
}

// AttributeTail selects the spans whose total latency is at or above the
// q-quantile of the given spans and returns that threshold, the tail size,
// and each stage's share of the tail's total time (descending, zero-time
// stages omitted). It answers "where does p99/p999 time go?".
func AttributeTail(spans []OpTrace, q float64) (thr time.Duration, tail int, shares []StageShare) {
	if len(spans) == 0 {
		return 0, 0, nil
	}
	totals := make([]time.Duration, len(spans))
	for i, t := range spans {
		totals[i] = t.Total
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	idx := int(q * float64(len(totals)))
	if idx >= len(totals) {
		idx = len(totals) - 1
	}
	if idx < 0 {
		idx = 0
	}
	thr = totals[idx]

	var stageNS [StageCount]time.Duration
	var stageCnt [StageCount]uint64
	var totalNS time.Duration
	for _, t := range spans {
		if t.Total < thr {
			continue
		}
		tail++
		totalNS += t.Total
		for st := SpanStage(0); st < StageCount; st++ {
			stageNS[st] += t.Stages[st]
			stageCnt[st] += uint64(t.Counts[st])
		}
	}
	for st := SpanStage(0); st < StageCount; st++ {
		if stageNS[st] <= 0 {
			continue
		}
		sh := StageShare{Stage: st, Time: stageNS[st], Count: stageCnt[st]}
		if totalNS > 0 {
			sh.Share = float64(stageNS[st]) / float64(totalNS)
		}
		shares = append(shares, sh)
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].Time > shares[j].Time })
	return thr, tail, shares
}

// WriteAttribution prints the tail-latency attribution table for the given
// spans: for the p99 and p999 tails, each stage's share of where the time
// went, plus the fraction of span time the instrumented stages cover
// (100% by construction — StageOther absorbs the remainder — so a lower
// figure indicates a recording bug).
func WriteAttribution(w io.Writer, spans []OpTrace) error {
	if len(spans) == 0 {
		_, err := fmt.Fprintln(w, "no sampled spans (enable span sampling, or lower -sample)")
		return err
	}
	type tailCol struct {
		name   string
		q      float64
		thr    time.Duration
		tail   int
		shares map[SpanStage]StageShare
	}
	cols := []tailCol{{name: "p99", q: 0.99}, {name: "p999", q: 0.999}}
	present := map[SpanStage]bool{}
	for i := range cols {
		thr, tail, shares := AttributeTail(spans, cols[i].q)
		cols[i].thr, cols[i].tail = thr, tail
		cols[i].shares = make(map[SpanStage]StageShare, len(shares))
		for _, sh := range shares {
			cols[i].shares[sh.Stage] = sh
			present[sh.Stage] = true
		}
	}

	var attributed, total time.Duration
	for _, t := range spans {
		total += t.Total
		for st := SpanStage(0); st < StageCount; st++ {
			attributed += t.Stages[st]
		}
	}
	coverage := 100.0
	if total > 0 {
		coverage = float64(attributed) / float64(total) * 100
	}

	fmt.Fprintf(w, "== tail-latency attribution: %d spans, stage coverage %.1f%% of span time ==\n",
		len(spans), coverage)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "stage")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s share\t%s time", c.name, c.name)
	}
	fmt.Fprintln(tw)
	for st := SpanStage(0); st < StageCount; st++ {
		if !present[st] {
			continue
		}
		fmt.Fprintf(tw, "%s", st)
		for _, c := range cols {
			sh, ok := c.shares[st]
			if !ok {
				fmt.Fprint(tw, "\t-\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.1f%%\t%s", sh.Share*100, sh.Time.Round(time.Microsecond))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, c := range cols {
		fmt.Fprintf(w, "%s tail: %d ops at/above %s\n", c.name, c.tail, c.thr.Round(time.Microsecond))
	}
	return nil
}
