package wal

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// DurabilityMode selects when a commit is acknowledged relative to the
// device force that makes it durable. The recovery protocol (paper §2.1)
// only assumes the log is forced *at* commit — not that each commit pays
// its own force — so forces can be shared or deferred without touching
// recovery.
type DurabilityMode uint8

// Durability modes, from strictest to loosest.
const (
	// DurSync, the default, acknowledges a commit after a device force
	// covering its record: its own, on the committing goroutine, if none is
	// in flight; otherwise the next one, shared with every commit that
	// arrived meanwhile (Log.force). An acknowledged commit is durable.
	DurSync DurabilityMode = iota
	// DurPeriodic acknowledges commits immediately; the log-writer forces
	// the device every PipelineConfig.Interval, or sooner when unforced
	// bytes exceed PipelineConfig.Bytes. A crash, of the machine or the
	// process, loses at most the commits acknowledged since the last force.
	DurPeriodic
	// DurAsync acknowledges commits immediately and nudges the log-writer,
	// which forces as fast as the device allows, coalescing whatever
	// accumulated. Same loss window as DurPeriodic (the unforced tail),
	// typically shorter in practice because every commit triggers a force.
	DurAsync

	// Deprecated: DurGroup was a second implementation of DurSync's promise
	// and is now another name for it, kept while benchmark/target.go uses it.
	DurGroup = DurSync
)

// String returns the mode's flag/metric name.
func (m DurabilityMode) String() string {
	switch m {
	case DurSync:
		return "sync"
	case DurPeriodic:
		return "periodic"
	case DurAsync:
		return "async"
	default:
		return fmt.Sprintf("durability?%d", uint8(m))
	}
}

// ParseDurabilityMode parses a mode name as used in command-line flags:
// "sync", "periodic" or "async". "group" is a deprecated spelling of "sync".
func ParseDurabilityMode(s string) (DurabilityMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sync", "group", "":
		return DurSync, nil
	case "periodic":
		return DurPeriodic, nil
	case "async":
		return DurAsync, nil
	default:
		return DurSync, fmt.Errorf("wal: unknown durability mode %q (want sync, periodic or async)", s)
	}
}

// AckAfterForce reports whether the mode acknowledges commits only after
// their LSN is durable (DurSync). The other modes may lose acknowledged
// commits at a power cut or a process crash; the crash harness uses this to
// decide which commits count as promises.
func (m DurabilityMode) AckAfterForce() bool {
	return m == DurSync
}

// PipelineConfig parameterizes the commit pipeline configured by
// StartPipeline.
type PipelineConfig struct {
	// Mode selects the durability mode. DurSync needs no pipeline
	// goroutine; the other modes start one.
	Mode DurabilityMode

	// Interval is DurPeriodic's background force period (default 2ms).
	// A negative Interval disables ALL autonomous forcing — no log-writer
	// in either deferred mode — leaving explicit Flush/FlushAll forces only.
	// The crash harness uses this to keep the persistence-operation stream
	// deterministic.
	Interval time.Duration

	// Bytes is DurPeriodic's unforced-byte threshold (default 256 KiB):
	// when more than this many appended bytes await a force, the writer is
	// nudged without waiting for the ticker.
	Bytes int64
}

// withDefaults fills unset fields.
func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Mode == DurPeriodic {
		if c.Interval == 0 {
			c.Interval = 2 * time.Millisecond
		}
		if c.Bytes == 0 {
			c.Bytes = 256 << 10
		}
	}
	return c
}

// GroupStats counts the commit path's activity. All fields are monotone.
type GroupStats struct {
	// Commits is the number of commits acknowledged after a force covering
	// them (DurSync).
	Commits uint64
	// ImmediateAcks is the number of commits acknowledged before their
	// force (DurPeriodic / DurAsync).
	ImmediateAcks uint64
	// Forces is the number of device forces that covered at least one
	// waiting commit; Commits/Forces is the mean number sharing a force.
	Forces uint64
	// MaxBatch is the largest number of waiting commits one force covered.
	MaxBatch uint64
}

// GroupObserver is the optional Observer extension receiving commit-path
// telemetry. *obs.Registry implements it.
type GroupObserver interface {
	// LogGroupForce reports one force that covered waiting commits: how
	// many, and how long the device took.
	LogGroupForce(batch int, d time.Duration)
	// LogGroupAck reports one commit's delay from Commit to its
	// acknowledgement after the covering force.
	LogGroupAck(d time.Duration)
}

// ErrPipelineStopped is what every append, force and commit gets from a log
// stopped without a force (process-death simulation via Stop(false)).
var ErrPipelineStopped = errors.New("wal: commit pipeline stopped")

// commitWait is a commit inside force: when it asked, and its span times.
type commitWait struct {
	t0          time.Time
	park, force time.Duration
}

// pipeline is the Log's durability mode, the log-writer of the two
// ack-before-force modes, and the counters. Guarded by Log.mu.
type pipeline struct {
	cfg    PipelineConfig
	wake   chan struct{} // 1-buffered writer nudge; nil without a writer
	stopCh chan struct{}
	done   chan struct{} // closed when the writer goroutine exits
	stop   sync.Once

	// unforced counts appended bytes since the last force (byte trigger).
	unforced int64

	stats GroupStats
}

// StartPipeline configures the log's durability mode and, for DurPeriodic
// and DurAsync (unless autonomous forcing is disabled), starts the
// log-writer goroutine that forces in the background; Stop ends it. Call
// once, before the log sees commits; without it a log behaves as DurSync.
func (l *Log) StartPipeline(cfg PipelineConfig) {
	cfg = cfg.withDefaults()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.p.cfg = cfg
	if cfg.Mode.AckAfterForce() || cfg.Interval < 0 || l.p.done != nil {
		return
	}
	l.p.wake = make(chan struct{}, 1)
	l.p.stopCh = make(chan struct{})
	l.p.done = make(chan struct{})
	go l.writerLoop()
}

// GroupStats returns the commit path's activity counters.
func (l *Log) GroupStats() GroupStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p.stats
}

// Commit acknowledges the commit record at lsn according to the durability
// mode: DurSync returns after a force covering lsn (see force), so nil means
// lsn is durable; DurPeriodic and DurAsync return at once (the record rides
// a later background force), so nil only means it was appended.
func (l *Log) Commit(lsn LSN) error {
	return l.CommitTraced(lsn, nil)
}

// CommitTraced is Commit with span attribution: traced, when non-nil, is
// called once before a successful return, on the calling goroutine, with
// the time the commit waited for the force that covered it to start (a
// leader's wait for the previous force, a follower's for the one after it)
// and that force's duration. Both are zero when the record was already
// durable, and in the immediate-ack modes.
func (l *Log) CommitTraced(lsn LSN, traced func(park, force time.Duration)) error {
	var c commitWait
	l.mu.Lock()
	mode := l.p.cfg.Mode
	if !mode.AckAfterForce() {
		if err := l.err; err != nil {
			l.mu.Unlock()
			return err
		}
		l.p.stats.ImmediateAcks++
		if mode == DurAsync || l.p.unforced >= l.p.cfg.Bytes {
			// Wake the log-writer, if there is one (a nil channel is never
			// ready). One queued nudge is enough: each wake-up forces
			// everything appended so far.
			select {
			case l.p.wake <- struct{}{}:
			default:
			}
		}
		l.mu.Unlock()
	} else {
		l.mu.Unlock()
		c.t0 = time.Now()
		if err := l.force(lsn, &c); err != nil {
			return err
		}
		if gobs, ok := l.obs.(GroupObserver); ok {
			gobs.LogGroupAck(time.Since(c.t0))
		}
	}
	if traced != nil {
		traced(c.park, c.force)
	}
	return nil
}

// writerLoop is the log-writer goroutine of the ack-before-force modes: on
// a nudge or a tick it forces whatever has been appended.
func (l *Log) writerLoop() {
	defer close(l.p.done)
	var tick <-chan time.Time
	if l.p.cfg.Mode == DurPeriodic {
		ticker := time.NewTicker(l.p.cfg.Interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-l.p.stopCh:
			return
		case <-l.p.wake:
		case <-tick:
		}
		// A failed background force has nobody to report to: it stops the
		// log, and every later append, force and commit returns the error.
		_ = l.FlushAll()
	}
}

// Stop ends the commit pipeline; the log-writer, if any, has exited when it
// returns. With force true everything appended is then made durable, commits
// still waiting for a force included (Close path); later DurSync commits
// still force, periodic/async commits are append-only acks. With force
// false nothing more reaches the device, the unwritten tail included:
// commits waiting for a force, and every later append, force and commit,
// get ErrPipelineStopped (Abandon / process-death simulation). Idempotent.
func (l *Log) Stop(force bool) error {
	var err error
	l.p.stop.Do(func() {
		if !force {
			l.mu.Lock()
			l.err = ErrPipelineStopped
			l.mu.Unlock()
			l.forceDone.Broadcast()
		}
		if l.p.done != nil {
			close(l.p.stopCh)
			<-l.p.done
		}
		if force {
			err = l.FlushAll()
		}
	})
	return err
}
