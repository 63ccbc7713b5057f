package wal

import (
	"sync"
	"time"
)

// Log is the write-ahead log: it assigns LSNs, frames records onto a Device
// and tracks the durable horizon. All methods are safe for concurrent use.
//
// When a Commit returns relative to the force covering its record is the
// durability mode's choice (StartPipeline, DurabilityMode). Device forces
// never run under the append mutex, so record appends pipeline behind an
// in-flight force instead of serializing on it.
type Log struct {
	mu      sync.Mutex
	dev     Device
	next    LSN   // next LSN to assign
	flushed LSN   // all records with LSN <= flushed are durable
	synced  LSN   // records appended to the device up to here (pre-Sync)
	end     int64 // device position the next frame lands at (see Master)

	// What the open read, and the records decoded from it (see Restart).
	restart Restart
	tail    []*Record

	appends uint64
	flushes uint64

	// One force runs at a time (see force). inflight is its target LSN,
	// zero when none is running; forceDone, on mu, wakes every caller that
	// arrived meanwhile when it ends, and when the log is abandoned.
	inflight  LSN
	forceDone sync.Cond
	abandoned bool // Stop(false): nothing reaches the device any more
	// Commits waiting for their acknowledgement, booked on the force that
	// will cover them: batch on the one in flight, waiting on the next.
	batch, waiting int
	// Start and duration of the last successful force, for commit spans.
	lastStart time.Time
	lastDur   time.Duration

	// p is the commit pipeline's configuration and counters (see group.go).
	p pipeline

	// obs, when set, is told how long appends and forced syncs take.
	// Set once (SetObserver) before the log sees traffic.
	obs Observer
}

// Observer receives log latencies. *obs.Registry implements it.
type Observer interface {
	LogAppend(d time.Duration)
	LogFlush(d time.Duration)
}

// SetObserver installs o as the log's latency observer. It must be called
// before the log is shared between goroutines.
func (l *Log) SetObserver(o Observer) { l.obs = o }

// NewLog creates a Log over dev, resuming after any records already durable
// on the device (their LSNs are skipped). It reads the device once, from
// its master record's checkpoint if it has one (see Restart).
func NewLog(dev Device) (*Log, error) {
	rs, err := dev.ReadRestart()
	if err != nil {
		return nil, err
	}
	recs, err := decodeFrames(rs.Frames)
	if err != nil {
		return nil, err
	}
	rs.Frames = nil
	l := &Log{dev: dev, next: 1, end: rs.End, restart: rs, tail: recs}
	l.forceDone.L = &l.mu
	if n := len(recs); n > 0 {
		l.next = recs[n-1].LSN + 1
		l.flushed = recs[n-1].LSN
		l.synced = l.flushed
	}
	return l, nil
}

// Restart returns the device's account of the read NewLog made (Frames
// nil) and the records decoded from it; those only once, to recovery.
func (l *Log) Restart() (Restart, []*Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := l.tail
	l.tail = nil
	return l.restart, recs
}

// Checkpoint appends the checkpoint record build returns (under the append
// mutex, so what it reads is ordered against every record), forces it and,
// unless an active transaction's undo chain lies before it, makes it the master.
func (l *Log) Checkpoint(build func() *Record) error {
	l.mu.Lock()
	m := Master{Pos: l.end, LSN: l.next}
	r := build()
	r.LSN = l.next
	err := l.appendLocked(r)
	l.mu.Unlock()
	if err == nil {
		err = l.FlushAll()
	}
	if err != nil || len(r.Active) > 0 {
		return err
	}
	return l.dev.WriteMaster(m)
}

// AppendFunc assigns the next LSN, passes it to build, and appends the
// record build returns. It exists for structure modifications: the pages an
// SMO touches must be stamped with the SMO record's own LSN *before* their
// after-images are encoded into that record, so LSN assignment and record
// construction must be atomic.
func (l *Log) AppendFunc(build func(lsn LSN) *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := build(l.next)
	r.LSN = l.next
	if err := l.appendLocked(r); err != nil {
		return 0, err
	}
	return r.LSN, nil
}

// appendLocked encodes and buffers r (LSN already assigned), timing the
// device append for the observer. Caller holds l.mu.
func (l *Log) appendLocked(r *Record) error {
	var t0 time.Time
	if l.obs != nil {
		t0 = time.Now()
	}
	f := frame(r.Encode())
	if err := l.dev.Append(f); err != nil {
		return err
	}
	if l.obs != nil {
		l.obs.LogAppend(time.Since(t0))
	}
	l.next++
	l.end += int64(len(f))
	l.synced = r.LSN
	l.appends++
	l.p.unforced += int64(len(f))
	return nil
}

// Append assigns the next LSN to r, encodes it and buffers it on the device.
// The record is durable only after a Flush covering its LSN.
func (l *Log) Append(r *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.LSN = l.next
	if err := l.appendLocked(r); err != nil {
		return 0, err
	}
	return r.LSN, nil
}

// Flush forces durability of all records with LSN <= upto. It is a no-op if
// they are already durable (the WAL rule check in the buffer pool calls this
// on every page write, so the common case must be cheap).
func (l *Log) Flush(upto LSN) error {
	return l.force(upto, nil)
}

// FlushAll forces durability of everything appended so far.
func (l *Log) FlushAll() error {
	return l.force(^LSN(0), nil)
}

// force returns once every record with LSN <= upto (clamped to what has
// been appended) is durable; it is the one path to the device's Sync. A
// caller that finds no force in flight leads one on its own goroutine. A
// caller that arrives while one is in flight waits for it to end; all such
// callers wake at once, those it covered return, and one of the rest leads
// the next force, which therefore covers everything that arrived during the
// previous one. c, when non-nil, is a commit waiting for its acknowledgement.
func (l *Log) force(upto LSN, c *commitWait) error {
	l.mu.Lock()
	upto = min(upto, l.synced)
	if c != nil && upto > l.flushed {
		if upto <= l.inflight {
			l.batch++
		} else {
			l.waiting++
		}
	}
	for l.inflight != 0 && upto > l.flushed && !l.abandoned {
		l.forceDone.Wait()
	}
	// A wake-up is not an acknowledgement: the force that ended may have
	// failed, or have started before this caller's record was appended.
	if upto <= l.flushed {
		l.ackLocked(c)
		l.mu.Unlock()
		return nil
	}
	if l.abandoned {
		l.mu.Unlock()
		return ErrPipelineStopped
	}

	// Lead. The Sync covers what was appended before it starts, so the
	// durable horizon advances to the target captured here, not to where
	// synced stands when the Sync returns.
	target := l.synced
	l.inflight = target
	l.batch, l.waiting = l.waiting, 0
	l.mu.Unlock()

	start := time.Now()
	err := l.dev.Sync()
	d := time.Since(start)

	l.mu.Lock()
	batch := l.batch
	l.inflight, l.batch = 0, 0
	if err != nil {
		// The leader leaves with the error; the other commits booked on
		// this force wait for the next.
		l.waiting += batch
		if c != nil {
			l.waiting--
		}
	} else {
		l.flushed = target
		l.flushes++
		l.p.unforced = 0
		l.lastStart, l.lastDur = start, d
		if batch > 0 {
			l.p.stats.Forces++
			l.p.stats.MaxBatch = max(l.p.stats.MaxBatch, uint64(batch))
		}
		l.ackLocked(c)
	}
	l.mu.Unlock()
	// Woken after the unlock, the followers find the mutex free; woken
	// under it they would queue on it and leave one at a time.
	l.forceDone.Broadcast()
	if err == nil && l.obs != nil {
		l.obs.LogFlush(d)
		if gobs, ok := l.obs.(GroupObserver); ok && batch > 0 {
			gobs.LogGroupForce(batch, d)
		}
	}
	return err
}

// ackLocked counts c, a commit whose record is durable, and charges its
// span the last force if it waited for or led it: park until that force
// started, then the force (nothing, when it ended before c asked). Caller
// holds l.mu.
func (l *Log) ackLocked(c *commitWait) {
	if c == nil {
		return
	}
	l.p.stats.Commits++
	c.park = l.lastStart.Sub(c.t0)
	c.force = l.lastDur
	if c.park < 0 { // the force was running, or over, when c asked
		c.force = max(c.force+c.park, 0)
		c.park = 0
	}
}

// FlushedLSN returns the durable horizon.
func (l *Log) FlushedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// NextLSN returns the LSN the next Append will receive.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Stats returns (appended records, device syncs forced by Flush).
func (l *Log) Stats() (appends, flushes uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.flushes
}

// decodeFrames unframes and decodes frames.
func decodeFrames(frames [][]byte) ([]*Record, error) {
	recs := make([]*Record, 0, len(frames))
	for _, f := range frames {
		payload, err := unframe(f)
		if err != nil {
			return nil, err
		}
		r, err := DecodeRecord(payload)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// DurableRecords reads the whole log: every durable record in LSN order.
// Used by the dump and audit tools; recovery reads only what Restart returns.
func (l *Log) DurableRecords() ([]*Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	frames, err := l.dev.ReadDurable()
	if err != nil {
		return nil, err
	}
	return decodeFrames(frames)
}

// TailTorn reports the device's torn-tail observation (garbage bytes past
// the last valid frame, left by a power cut mid-append), or zero values
// when the device is not a TailReporter. Recovery surfaces it so operators
// can tell a clean shutdown's log from one truncated by a crash.
func (l *Log) TailTorn() (bool, int64) {
	if tr, ok := l.dev.(TailReporter); ok {
		return tr.TailTorn()
	}
	return false, 0
}
