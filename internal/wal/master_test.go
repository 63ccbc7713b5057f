package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"blinktree/internal/page"
)

// checkpointedLog appends history records, a checkpoint through
// Log.Checkpoint, then tail records, and forces everything.
func checkpointedLog(t testing.TB, dev Device, history, tail int, active []ActiveTxn) *Log {
	t.Helper()
	l, err := NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	put := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := l.Append(&Record{Type: TRecOp, Op: OpInsert, Page: 1, Key: []byte("k"), Val: []byte("v")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(history)
	if err := l.Checkpoint(func() *Record { return &Record{Type: TCheckpoint, Txn: 9, Root: 1, Active: active} }); err != nil {
		t.Fatal(err)
	}
	put(tail)
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRestartReadsFromMaster: after a checkpoint with no active transaction
// a new Log reads only the checkpoint record and what follows it, resumes
// LSNs where the old one stopped, and still serves the whole log through
// DurableRecords. With an active transaction no master is written.
func TestRestartReadsFromMaster(t *testing.T) {
	devices := map[string]func(t *testing.T) (dev Device, reopen func() Device){
		"mem": func(t *testing.T) (Device, func() Device) {
			d := NewMemDevice()
			return d, func() Device { return d }
		},
		"file": func(t *testing.T) (Device, func() Device) {
			path := filepath.Join(t.TempDir(), "wal.log")
			open := func() Device {
				d, err := OpenFileDevice(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { d.Close() })
				return d
			}
			return open(), open
		},
	}
	for name, mk := range devices {
		t.Run(name, func(t *testing.T) {
			dev, reopen := mk(t)
			old := checkpointedLog(t, dev, 50, 3, nil)
			l, err := NewLog(reopen())
			if err != nil {
				t.Fatal(err)
			}
			rs, recs := l.Restart()
			if rs.Why != "" || rs.Start == 0 || rs.Master.LSN != 51 {
				t.Fatalf("restart = %+v, want a read from the checkpoint at LSN 51", rs)
			}
			if len(recs) != 4 || recs[0].Type != TCheckpoint || recs[0].Txn != 9 || recs[3].LSN != 54 {
				t.Fatalf("tail = %v, want the checkpoint and 3 records", recs)
			}
			if _, again := l.Restart(); again != nil {
				t.Fatalf("Restart handed its records over twice")
			}
			if l.NextLSN() != old.NextLSN() || l.FlushedLSN() != 54 {
				t.Fatalf("resumed at next %d flushed %d, want %d and 54", l.NextLSN(), l.FlushedLSN(), old.NextLSN())
			}
			all, err := l.DurableRecords()
			if err != nil || len(all) != 54 {
				t.Fatalf("DurableRecords = %d records, %v; want all 54", len(all), err)
			}
			// A second checkpoint's position is computed from the tail
			// read's end, not from a full read.
			checkpointedLog(t, reopen(), 5, 0, nil)
			l, _ = NewLog(reopen())
			if rs, recs := l.Restart(); rs.Why != "" || len(recs) != 1 || recs[0].LSN != 60 {
				t.Fatalf("after a second checkpoint: %+v, %v", rs, recs)
			}
		})
		t.Run(name+"/active", func(t *testing.T) {
			dev, reopen := mk(t)
			checkpointedLog(t, dev, 20, 2, []ActiveTxn{{ID: 3, LastLSN: 7}})
			l, err := NewLog(reopen())
			if err != nil {
				t.Fatal(err)
			}
			if rs, recs := l.Restart(); rs.Why != WhyNoMaster || rs.Start != 0 || len(recs) != 23 {
				t.Fatalf("restart = %+v with %d records, want the whole log for want of a master", rs, len(recs))
			}
		})
	}
}

// TestRestartOfRejectsBadMasters: every way a master record can fail to
// name a checkpoint of these frames yields the whole log and the reason.
func TestRestartOfRejectsBadMasters(t *testing.T) {
	dev := NewMemDevice()
	checkpointedLog(t, dev, 4, 2, nil)
	frames, _ := dev.ReadDurable()
	good := dev.master
	m, err := DecodeMaster(good)
	if err != nil {
		t.Fatal(err)
	}
	withActive := NewMemDevice()
	checkpointedLog(t, withActive, 4, 2, []ActiveTxn{{ID: 1, LastLSN: 2}})
	activeFrames, _ := withActive.ReadDurable()

	flipped := append([]byte(nil), good...)
	flipped[9] ^= 1
	cases := []struct {
		name   string
		frames [][]byte
		master []byte
		why    string
	}{
		{"valid", frames, good, ""},
		{"missing", frames, nil, WhyNoMaster},
		{"bit flipped", frames, flipped, WhyBadMaster},
		{"truncated", frames, good[:len(good)-1], WhyBadMaster},
		{"not a checkpoint", frames, Master{Pos: int64(len(frames[0])), LSN: 2}.Encode(), WhyBadMaster},
		{"wrong LSN", frames, Master{Pos: m.Pos, LSN: m.LSN + 1}.Encode(), WhyBadMaster},
		{"inside a frame", frames, Master{Pos: m.Pos + 3, LSN: m.LSN}.Encode(), WhyBadMaster},
		{"beyond the end", frames[:4], good, WhyBadMaster},
		{"checkpoint with an active transaction", activeFrames, good, WhyBadMaster},
	}
	for _, c := range cases {
		r := RestartOf(c.frames, c.master)
		if r.Why != c.why {
			t.Errorf("%s: why = %q, want %q", c.name, r.Why, c.why)
		}
		if c.why == "" {
			if r.Start != m.Pos || len(r.Frames) != 3 {
				t.Errorf("%s: start %d with %d frames, want %d with 3", c.name, r.Start, len(r.Frames), m.Pos)
			}
		} else if r.Start != 0 || len(r.Frames) != len(c.frames) {
			t.Errorf("%s: start %d with %d frames, want the whole log", c.name, r.Start, len(r.Frames))
		}
	}
	if _, err := DecodeMaster(Master{Pos: -1, LSN: 1}.Encode()); !errors.Is(err, ErrBadRecord) {
		t.Errorf("negative position decoded: %v", err)
	}
}

// TestAnalyzeCommitRacingCheckpoint: Commit does not enter the checkpoint
// gate, so a checkpoint can list as active a transaction whose commit record
// precedes the checkpoint record. Analysis used to make it a loser — a
// committed, acknowledged transaction rolled back at the next restart.
func TestAnalyzeCommitRacingCheckpoint(t *testing.T) {
	a := Analyze([]*Record{
		{LSN: 1, Type: TBegin, Txn: 1},
		{LSN: 2, Type: TRecOp, Txn: 1, PrevLSN: 1, Op: OpInsert, Key: []byte("k")},
		{LSN: 3, Type: TBegin, Txn: 2},
		{LSN: 4, Type: TRecOp, Txn: 2, PrevLSN: 3, Op: OpInsert, Key: []byte("j")},
		{LSN: 5, Type: TCommit, Txn: 1, PrevLSN: 2},
		{LSN: 6, Type: TCheckpoint, Active: []ActiveTxn{{ID: 1, LastLSN: 2}, {ID: 2, LastLSN: 4}}},
	})
	if _, loser := a.Losers[1]; loser || !a.Committed[1] {
		t.Errorf("committed transaction 1 is a loser: %v", a.Losers)
	}
	if a.Losers[2] != 4 {
		t.Errorf("transaction 2 is not a loser at LSN 4: %v", a.Losers)
	}
}

// TestDecodeRejectsUncheckedLengths: a count or length field larger than the
// bytes that follow it is an error, not an allocation or an index panic;
// so are unknown flag bits and bytes after the record's end.
func TestDecodeRejectsUncheckedLengths(t *testing.T) {
	smo := (&Record{Type: TSMO, SMO: SMOSplit, Images: []PageImage{{ID: 1, Data: []byte("img")}}, Allocs: []page.PageID{2}}).Encode()
	recop := (&Record{Type: TRecOp, Op: OpInsert, Key: []byte("key")}).Encode()
	ckpt := (&Record{Type: TCheckpoint, Active: []ActiveTxn{{ID: 1, LastLSN: 2}}}).Encode()
	set := func(b []byte, off int, v byte) []byte {
		out := append([]byte(nil), b...)
		for i := off; i < off+8; i++ {
			out[i] = v
		}
		return out
	}
	for name, b := range map[string][]byte{
		"image count":   set(smo, 25+1+8, 0xff),
		"image length":  set(smo, 25+1+8+8+8, 0x7f),
		"key length":    set(recop, 25+2+16, 0x7f),
		"active count":  set(ckpt, 25+8, 0xef),
		"recop flags":   append(append([]byte(nil), recop[:26]...), append([]byte{2}, recop[27:]...)...),
		"trailing byte": append(append([]byte(nil), ckpt...), 0),
	} {
		if _, err := DecodeRecord(b); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
		}
	}
}

// TestFileDeviceCutsTornTailBeforeAppending: frames appended after a torn
// tail used to land behind the garbage, where no later read could reach
// them — acknowledged work lost at the second restart.
func TestFileDeviceCutsTornTailBeforeAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, _ := OpenFileDevice(path)
	l, _ := NewLog(dev)
	l.Append(&Record{Type: TBegin, Txn: 1})
	l.FlushAll()
	dev.Append([]byte{0xFF, 0x01, 0x02})
	dev.Close()

	dev, _ = OpenFileDevice(path)
	l, err := NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if torn, n := l.TailTorn(); !torn || n != 3 {
		t.Fatalf("TailTorn = %v, %d; want the 3 garbage bytes reported", torn, n)
	}
	if err := l.Checkpoint(func() *Record { return &Record{Type: TCheckpoint, Root: 1} }); err != nil {
		t.Fatal(err)
	}
	dev.Close()

	for _, withMaster := range []bool{true, false} {
		if !withMaster {
			os.Remove(path + ".ckpt")
		}
		dev, _ = OpenFileDevice(path)
		l, _ = NewLog(dev)
		recs, err := l.DurableRecords()
		if err != nil || len(recs) != 2 {
			t.Fatalf("master %v: %d records after reopening, %v; want the checkpoint appended after the torn tail too", withMaster, len(recs), err)
		}
		if rs, _ := l.Restart(); (rs.Why == "") != withMaster {
			t.Fatalf("master %v: restart %+v", withMaster, rs)
		}
		dev.Close()
	}
}

// countingDevice counts the reads a Log makes of its device.
type countingDevice struct {
	Device
	reads int
}

func (d *countingDevice) ReadDurable() ([][]byte, error) { d.reads++; return d.Device.ReadDurable() }
func (d *countingDevice) ReadRestart() (Restart, error)  { d.reads++; return d.Device.ReadRestart() }

// TestOpenReadsTheDeviceOnce: NewLog makes exactly one read call whether or
// not a master record names a restart point.
func TestOpenReadsTheDeviceOnce(t *testing.T) {
	for _, master := range []bool{true, false} {
		mem := NewMemDevice()
		checkpointedLog(t, mem, 30, 3, nil)
		if !master {
			mem.master = nil
		}
		dev := &countingDevice{Device: mem}
		l, err := NewLog(dev)
		if err != nil {
			t.Fatal(err)
		}
		if rs, _ := l.Restart(); dev.reads != 1 || (rs.Why == "") != master {
			t.Fatalf("master %v: %d device reads, restart %+v", master, dev.reads, rs)
		}
	}
}

// fullLog writes a log of n image-carrying SMO records, with no master, and
// returns its path.
func fullLog(tb testing.TB, n, imageBytes int) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "wal.log")
	dev, err := OpenFileDevice(path)
	if err != nil {
		tb.Fatal(err)
	}
	l, _ := NewLog(dev)
	img := make([]byte, imageBytes)
	for i := 0; i < n; i++ {
		if _, err := l.Append(&Record{Type: TSMO, SMO: SMOSplit, Images: []PageImage{{ID: 1, Data: img}}}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.FlushAll(); err != nil {
		tb.Fatal(err)
	}
	dev.Close()
	return path
}

// openAllocsPerFrame opens the log at path and returns how many allocations
// per frame the open made beyond those of the decoded records themselves.
func openAllocsPerFrame(tb testing.TB, path string) float64 {
	tb.Helper()
	dev, err := OpenFileDevice(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer dev.Close()
	frames, err := dev.ReadDurable()
	if err != nil || len(frames) == 0 {
		tb.Fatalf("%d frames, %v", len(frames), err)
	}
	decode := testing.AllocsPerRun(1, func() {
		if _, err := decodeFrames(frames); err != nil {
			tb.Fatal(err)
		}
	})
	open := testing.AllocsPerRun(1, func() {
		if _, err := NewLog(dev); err != nil {
			tb.Fatal(err)
		}
	})
	return (open - decode) / float64(len(frames))
}

// TestOpenFullLogAllocations is BenchmarkOpenFullLog's bound on a log small
// enough for tier-1: a whole-log open allocates at most one object per frame
// on top of the decoded records (it used to allocate a payload and a frame
// copy for each, and to do all of it twice).
func TestOpenFullLogAllocations(t *testing.T) {
	if got := openAllocsPerFrame(t, fullLog(t, 500, 512)); got > 1 {
		t.Fatalf("%.2f allocations per frame beyond the decoded records, want <= 1", got)
	}
}

// BenchmarkOpenFullLog opens a 50 MB log that has no master record: the
// fallback every doubt about a master takes. allocs/frame is what the open
// allocates beyond the decoded records' own memory.
func BenchmarkOpenFullLog(b *testing.B) {
	path := fullLog(b, 12000, 4096)
	if fi, err := os.Stat(path); err != nil || fi.Size() < 45<<20 {
		b.Fatalf("log is %v bytes, want about 50 MB (%v)", fi.Size(), err)
	}
	perFrame := openAllocsPerFrame(b, path)
	dev, err := OpenFileDevice(path)
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLog(dev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perFrame, "allocs/frame")
}
