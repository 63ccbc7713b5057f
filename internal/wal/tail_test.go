package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countDevice counts what reaches a MemDevice, and fails every Append once
// failAppends is set.
type countDevice struct {
	*MemDevice
	appends, bytes atomic.Int64
	failAppends    atomic.Bool
}

var errAppendFailed = errors.New("countDevice: append failed")

func (d *countDevice) Append(run []byte) error {
	d.appends.Add(1)
	if d.failAppends.Load() {
		return errAppendFailed
	}
	d.bytes.Add(int64(len(run)))
	return d.MemDevice.Append(run)
}

func newCountedLog(t *testing.T) (*Log, *countDevice) {
	t.Helper()
	dev := &countDevice{MemDevice: NewMemDevice()}
	l, err := NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	return l, dev
}

// recOp is a record update of the size the benchmark's churn logs.
func recOp() *Record {
	return &Record{Type: TRecOp, Op: OpUpdate, Txn: 1, Page: 7,
		Key: []byte("key-0000000000000001"), Val: make([]byte, 100), OldVal: make([]byte, 100)}
}

// TestTailOneWritePerForce: records wait in the tail until a force, which
// writes them with one device append and makes them durable with one Sync.
func TestTailOneWritePerForce(t *testing.T) {
	l, dev := newCountedLog(t)
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := l.Append(recOp()); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.appends.Load(); got != 0 {
		t.Fatalf("%d device appends before any force, want 0", got)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if a, s := dev.appends.Load(), dev.Syncs(); a != 1 || s != 1 {
		t.Fatalf("%d appends then FlushAll: %d device appends and %d syncs, want 1 and 1", n, a, s)
	}
	if recs, err := l.DurableRecords(); err != nil || len(recs) != n || recs[n-1].LSN != n {
		t.Fatalf("durable: %d records, %v", len(recs), err)
	}
	// Nothing new: the next force touches the device not at all.
	if err := l.FlushAll(); err != nil || dev.appends.Load() != 1 || dev.Syncs() != 1 {
		t.Fatalf("an idle force reached the device: %v, %d appends, %d syncs", err, dev.appends.Load(), dev.Syncs())
	}
}

// TestTailFullWritesWithoutSync: an append that fills the tail writes it
// out, without a Sync; the records written so are durable only after one.
func TestTailFullWritesWithoutSync(t *testing.T) {
	l, dev := newCountedLog(t)
	var lsn LSN
	for dev.appends.Load() == 0 {
		var err error
		if lsn, err = l.Append(recOp()); err != nil {
			t.Fatal(err)
		}
	}
	if b, s := dev.bytes.Load(), dev.Syncs(); b < tailCap || s != 0 || l.FlushedLSN() != 0 {
		t.Fatalf("full tail: %d bytes written, %d syncs, flushed %d; want ≥ %d bytes, no sync", b, s, l.FlushedLSN(), tailCap)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if a, s := dev.appends.Load(), dev.Syncs(); a != 1 || s != 1 || l.FlushedLSN() != lsn {
		t.Fatalf("flush after a full tail: %d appends, %d syncs, flushed %d; want 1, 1, %d", a, s, l.FlushedLSN(), lsn)
	}
}

// TestTailConcurrentCommitters: committers and appenders of records big
// enough to fill the tail often run at once. Every device append is a
// force's or a full tail's, and the runs reach the device in the order they
// left the tail: the durable log is every record, in LSN order.
func TestTailConcurrentCommitters(t *testing.T) {
	l, dev := newCountedLog(t)
	const committers, commits, appenders, appends = 8, 50, 2, 200
	big := &Record{Type: TSMO, SMO: SMOSplit, Images: []PageImage{{ID: 1, Data: make([]byte, 32<<10)}}}
	var wg sync.WaitGroup
	for g := 0; g < committers+appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				var err error
				if g < committers {
					var lsn LSN
					if lsn, err = l.Append(&Record{Type: TCommit, Txn: uint64(g)}); err == nil {
						err = commitChecked(l, lsn)
					}
				} else {
					for j := 0; j < appends/commits && err == nil; j++ {
						_, err = l.AppendFunc(func(LSN) *Record { return big })
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	a, s, full := dev.appends.Load(), int64(dev.Syncs()), dev.bytes.Load()/tailCap
	if a > s+full {
		t.Fatalf("%d device appends for %d forces and at most %d full tails", a, s, full)
	}
	recs, err := l.DurableRecords()
	if err != nil || len(recs) != committers*commits+appenders*appends {
		t.Fatalf("durable: %d records, %v", len(recs), err)
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d: a run reached the device out of order", i, r.LSN)
		}
	}
	t.Logf("%d device appends, %d forces, %d MiB", a, s, full)
}

// TestTailFileBytesAreTheFrames: up to the log's end the file holds exactly
// the records' frames, one after another, as it did when each record was
// written on its own. While the log is open the rest is zeros written
// ahead; after Close there is no rest.
func TestTailFileBytesAreTheFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := NewLog(dev)
	var want []byte
	for i, r := range sampleRecords() {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := l.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, frame(r.Encode())...)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("open wal.log holds %d bytes, %v; want the %d bytes of the records' frames first", len(got), err, len(want))
	}
	if len(bytes.Trim(got[len(want):], "\x00")) != 0 || len(got) == len(want) {
		t.Fatalf("open wal.log: the %d bytes past the frames are not zeros written ahead", len(got)-len(want))
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("closed wal.log holds %d bytes, %v; want the %d bytes of the records' frames", len(got), err, len(want))
	}
}

// TestTailAppendAllocatesNothing: once the tail buffers have grown, an
// append encodes into them and allocates nothing.
func TestTailAppendAllocatesNothing(t *testing.T) {
	l, _ := newCountedLog(t)
	r := recOp()
	for i := 0; i < 2; i++ { // both buffers of the swap
		for j := 0; j < 2000; j++ {
			l.Append(r)
		}
		l.FlushAll()
	}
	if n := testing.AllocsPerRun(1000, func() { l.Append(r) }); n != 0 {
		t.Fatalf("Append allocates %v times per record", n)
	}
}

// TestTailWriteFailureIsFailStop: a device write that fails loses a run
// whose records carry LSNs, so the force that hit it and every later
// append, force and commit return the same ErrLogFailed, and the deferred
// modes' log-writer neither panics nor touches the device again.
func TestTailWriteFailureIsFailStop(t *testing.T) {
	for _, mode := range []DurabilityMode{DurSync, DurPeriodic} {
		l, dev := newCountedLog(t)
		l.StartPipeline(PipelineConfig{Mode: mode, Interval: time.Millisecond})
		l.Append(recOp())
		if err := l.FlushAll(); err != nil {
			t.Fatal(err)
		}
		dev.failAppends.Store(true)
		lsn, err := l.Append(recOp())
		if err != nil {
			t.Fatal(err)
		}
		var first error
		if mode == DurSync {
			first = l.Commit(lsn) // the committer leads the force
		} else {
			first = l.FlushAll() // this or the log-writer's
		}
		if !errors.Is(first, ErrLogFailed) || !errors.Is(first, errAppendFailed) {
			t.Fatalf("%s: the force that hit the failure returned %v", mode, first)
		}
		tries := dev.appends.Load()
		_, appendErr := l.Append(recOp())
		for what, err := range map[string]error{"append": appendErr, "commit": l.Commit(lsn), "flush": l.FlushAll()} {
			if err != first {
				t.Fatalf("%s: %s after the failure returned %v, want %v", mode, what, err, first)
			}
		}
		time.Sleep(20 * time.Millisecond) // the periodic writer ticks meanwhile
		if got := dev.appends.Load(); got != tries || dev.Syncs() != 1 {
			t.Fatalf("%s: %d device appends and %d syncs after the failure, want none", mode, got-tries, dev.Syncs()-1)
		}
		if err := l.Stop(true); err != first {
			t.Fatalf("%s: Stop(true) = %v, want %v", mode, err, first)
		}
	}
}

// TestAppendRefusesEmptyImage: a record whose page image is empty (a page
// that did not marshal) is refused, takes no LSN and leaves the log usable.
func TestAppendRefusesEmptyImage(t *testing.T) {
	l, _ := newCountedLog(t)
	next := l.NextLSN()
	if _, err := l.Append(&Record{Type: TSMO, SMO: SMOPost, Images: []PageImage{{ID: 7}}}); err == nil {
		t.Fatal("a record with an empty image was appended")
	}
	if l.NextLSN() != next {
		t.Fatalf("the refused record took LSN %d", next)
	}
	if _, err := l.Append(recOp()); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
}
