package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// tailCap bounds the log tail: an append that fills it writes the tail to
// the device, without a Sync, unless a force is writing one already.
const tailCap = 1 << 20

// ErrLogFailed wraps the cause of a failed or short device write, or of a
// failed Sync. The lost run's records already carry LSNs, frames written
// after a torn one would be unreachable, and a failed Sync may have dropped
// what it was to make durable, so the log is fail-stop: the force or append
// that hit the failure and every later append, force and commit return it.
var ErrLogFailed = errors.New("wal: log device write failed")

// Log is the write-ahead log: it assigns LSNs, frames records into a tail
// buffer in memory, writes the tail to a Device — one write and one Sync per
// force, outside the append mutex — and tracks the durable horizon. A
// process that dies loses the unwritten tail. When a Commit returns relative
// to the force covering its record is the durability mode's choice
// (StartPipeline, DurabilityMode). All methods are safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	dev      Device
	next     LSN   // next LSN to assign
	flushed  LSN   // all records with LSN <= flushed are durable
	appended LSN   // last LSN appended: in the tail or on the device
	end      int64 // frame-stream position the next frame lands at (see Master)

	// tail holds the frames appended since the last write, spare the buffer
	// the last force wrote. Runs reach the device in the order they leave
	// the tail: a full tail is written in place only while no force is.
	tail, spare []byte
	// err, once set, stops the log: ErrLogFailed, or ErrPipelineStopped
	// from Stop(false). Every append, force and commit returns it.
	err error

	// What the open read, and the records decoded from it (see Restart).
	restart   Restart
	recovered []*Record

	appends uint64
	flushes uint64

	// One force runs at a time (see force). inflight is its target LSN,
	// zero when none is running; forceDone, on mu, wakes every caller that
	// arrived meanwhile when it ends, and when the log is abandoned.
	inflight  LSN
	forceDone sync.Cond
	// Commits waiting for their acknowledgement, booked on the force that
	// will cover them: batch on the one in flight, waiting on the next.
	batch, waiting int
	// Start and duration of the last successful force, for commit spans.
	lastStart time.Time
	lastDur   time.Duration

	// p is the commit pipeline's configuration and counters (see group.go).
	p pipeline

	// obs, when set, is told how long appends and forces take.
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
	l := &Log{dev: dev, next: 1, end: rs.End, restart: rs, recovered: recs}
	l.forceDone.L = &l.mu
	if n := len(recs); n > 0 {
		l.next = recs[n-1].LSN + 1
		l.flushed = recs[n-1].LSN
		l.appended = l.flushed
	}
	return l, nil
}

// Restart returns the device's account of the read NewLog made (Frames
// nil) and the records decoded from it; those only once, to recovery.
func (l *Log) Restart() (Restart, []*Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := l.recovered
	l.recovered = nil
	return l.restart, recs
}

// Checkpoint appends the checkpoint record build returns (under the append
// mutex, so what it reads is ordered against every record), forces it and,
// unless an active transaction's undo chain lies before it, makes it the master.
func (l *Log) Checkpoint(build func() *Record) error {
	var m Master
	var r *Record
	_, err := l.AppendFunc(func(lsn LSN) *Record {
		m, r = Master{Pos: l.end, LSN: lsn}, build()
		return r
	})
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
// construction must be atomic. The record is encoded before AppendFunc
// returns; nothing keeps it. A record with an empty page image (a page
// that did not marshal) is refused: nothing is appended.
func (l *Log) AppendFunc(build func(lsn LSN) *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	r := build(l.next)
	for _, im := range r.Images {
		if im.Data == nil {
			return 0, fmt.Errorf("wal: record without an image of page %d", im.ID)
		}
	}
	var t0 time.Time
	if l.obs != nil {
		t0 = time.Now()
	}
	r.LSN = l.next
	n := len(l.tail)
	l.tail = appendFrame(l.tail, r.AppendEncode)
	l.next++
	l.appended = r.LSN
	l.appends++
	l.end += int64(len(l.tail) - n)
	l.p.unforced += int64(len(l.tail) - n)
	if len(l.tail) >= tailCap && l.inflight == 0 {
		if err := l.dev.Append(l.tail); err != nil {
			l.err = fmt.Errorf("%w: %w", ErrLogFailed, err)
			return 0, l.err
		}
		l.tail = l.tail[:0]
	}
	if l.obs != nil {
		l.obs.LogAppend(time.Since(t0))
	}
	return r.LSN, nil
}

// Append assigns the next LSN to r and frames it into the log's tail. The
// record is durable only after a Flush covering its LSN.
func (l *Log) Append(r *Record) (LSN, error) {
	return l.AppendFunc(func(LSN) *Record { return r })
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
	upto = min(upto, l.appended)
	if c != nil && upto > l.flushed {
		if upto <= l.inflight {
			l.batch++
		} else {
			l.waiting++
		}
	}
	for l.inflight != 0 && upto > l.flushed && l.err == nil {
		l.forceDone.Wait()
	}
	// A wake-up is not an acknowledgement: the force that ended may have
	// failed, or have started before this caller's record was appended.
	if upto <= l.flushed {
		l.ackLocked(c)
		l.mu.Unlock()
		return nil
	}
	if err := l.err; err != nil {
		l.mu.Unlock()
		return err
	}

	// Lead: swap the tail out, then write and sync it outside the mutex.
	// The Sync covers this run and every earlier one, so the durable horizon
	// advances to the target captured here, not to where appended stands
	// when the Sync returns.
	target := l.appended
	run := l.tail
	l.tail, l.spare = l.spare[:0], nil
	l.inflight = target
	l.batch, l.waiting = l.waiting, 0
	l.mu.Unlock()

	start := time.Now()
	var err error
	if len(run) > 0 {
		err = l.dev.Append(run)
	}
	if err == nil {
		err = l.dev.Sync()
	}
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrLogFailed, err)
	}
	d := time.Since(start)

	l.mu.Lock()
	l.spare = run[:0]
	batch := l.batch
	l.inflight, l.batch = 0, 0
	if err != nil {
		// A failed write or Sync is fail-stop: after a failed fsync the
		// kernel may have dropped the dirty pages, so a later Sync that
		// succeeds proves nothing about this run. Every commit booked on
		// this force, and every later one, gets the error.
		l.err = err
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
