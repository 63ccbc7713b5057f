package wal

import (
	"sync"
	"time"
)

// Log is the write-ahead log: it assigns LSNs, frames records onto a Device
// and tracks the durable horizon. All methods are safe for concurrent use.
//
// Durability is governed by the commit pipeline (StartPipeline): in the
// default DurSync mode every Commit forces the device on the calling
// goroutine; the other modes batch or defer forces (see DurabilityMode).
// Device forces never run under the append mutex, so record appends
// pipeline behind an in-flight force instead of serializing on it.
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

	// forceMu serializes device forces; it is never held together with mu
	// (force takes mu briefly before and after the device Sync, not
	// across it), so appends proceed while a force is in flight.
	forceMu sync.Mutex

	// p is the group-commit pipeline state (see group.go).
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
	l.mu.Lock()
	covered := upto <= l.flushed
	l.mu.Unlock()
	if covered {
		return nil
	}
	return l.force(upto)
}

// FlushAll forces durability of everything appended so far.
func (l *Log) FlushAll() error {
	return l.force(0)
}

// force makes every record appended so far durable: it captures the synced
// horizon, releases the mutex, forces the device (serialized on forceMu so
// concurrent forcers coalesce — a caller that waited behind another force
// covering its target returns without a second device sync), then advances
// the durable horizon. upto, when nonzero, is the caller's target LSN: a
// horizon already past it skips the device sync entirely.
func (l *Log) force(upto LSN) error {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	if upto != 0 && upto <= l.flushed {
		l.mu.Unlock()
		return nil
	}
	target := l.synced
	if target <= l.flushed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	var t0 time.Time
	if l.obs != nil {
		t0 = time.Now()
	}
	if err := l.dev.Sync(); err != nil {
		return err
	}
	if l.obs != nil {
		l.obs.LogFlush(time.Since(t0))
	}
	l.mu.Lock()
	if target > l.flushed {
		l.flushed = target
	}
	l.flushes++
	l.p.unforced = 0
	l.mu.Unlock()
	return nil
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
// Used by the dump and audit tools, and by redo after a torn page.
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
