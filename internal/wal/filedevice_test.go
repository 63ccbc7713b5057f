package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// openFileLog opens a Log over a FileDevice on path.
func openFileLog(t testing.TB, path string) (*Log, *FileDevice) {
	t.Helper()
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	return l, dev
}

// beginAll appends one begin record per txn and forces them; the records
// all encode to frames of one length.
func beginAll(t *testing.T, l *Log, txns ...uint64) {
	t.Helper()
	for _, txn := range txns {
		if _, err := l.Append(&Record{Type: TBegin, Txn: txn}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// abandon drops dev as a crash does: the file is closed without Close's cut.
func abandon(t *testing.T, dev *FileDevice) {
	t.Helper()
	if err := dev.f.Close(); err != nil {
		t.Fatal(err)
	}
}

// txnsOf returns the Txn of every durable record of l, in order.
func txnsOf(t *testing.T, l *Log) []uint64 {
	t.Helper()
	recs, err := l.DurableRecords()
	if err != nil {
		t.Fatal(err)
	}
	var txns []uint64
	for _, r := range recs {
		txns = append(txns, r.Txn)
	}
	return txns
}

// fileSize returns the length of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFileDeviceFramesBehindAGapNeverReturn: frames A and B, a zeroed gap
// where frame X was (a page the crash lost), then intact frames C and D. The
// open ends the log at B. E, X's length, is then written over the gap; if
// C and D were still on the file the chain A B E C D would be whole again,
// and a second open would bring back two frames the first one dropped.
func TestFileDeviceFramesBehindAGapNeverReturn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, dev := openFileLog(t, path)
	beginAll(t, l, 1, 2, 3, 4, 5) // A B X C D
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := len(img) / 5
	clear(img[2*n : 3*n])
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	l, dev = openFileLog(t, path)
	if torn, _ := dev.TailTorn(); !torn {
		t.Fatal("TailTorn = false; C and D past the gap are bytes past the last frame")
	}
	if got := txnsOf(t, l); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("open over a gap: txns %v, want A and B [1 2]", got)
	}
	beginAll(t, l, 6) // E, over the gap
	abandon(t, dev)

	l, dev = openFileLog(t, path)
	defer dev.Close()
	if got := txnsOf(t, l); !slices.Equal(got, []uint64{1, 2, 6}) {
		t.Fatalf("second open: txns %v, want A, B and E [1 2 6]", got)
	}
}

// TestFileDeviceAbandonedZerosAreNotATornTail: a device dropped without
// Close leaves the zeros written ahead on the file. They end the log; they
// are not a torn tail, and the open cuts them off.
func TestFileDeviceAbandonedZerosAreNotATornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, dev := openFileLog(t, path)
	beginAll(t, l, 1, 2)
	beginAll(t, l, 3)
	end := l.end
	abandon(t, dev)
	if size := fileSize(t, path); size <= end {
		t.Fatalf("abandoned wal.log is %d bytes, the frames %d: no zeros were written ahead", size, end)
	}

	l, dev = openFileLog(t, path)
	defer dev.Close()
	if torn, n := dev.TailTorn(); torn || n != 0 {
		t.Fatalf("TailTorn = %v, %d over zeros written ahead; want false, 0", torn, n)
	}
	if got := txnsOf(t, l); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("reopened: txns %v, want [1 2 3]", got)
	}
	if size := fileSize(t, path); size != end {
		t.Fatalf("wal.log is %d bytes after the open, want its frames' %d", size, end)
	}
}

// TestFileDeviceClosedFileIsItsFrames: Close cuts the zeros written ahead,
// on a new log and on one reopened and appended to.
func TestFileDeviceClosedFileIsItsFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var want []byte
	var lsn LSN
	for round, txns := range [][]uint64{{1, 2, 3}, {4, 5}} {
		l, dev := openFileLog(t, path)
		beginAll(t, l, txns...)
		for _, txn := range txns {
			lsn++
			want = append(want, frame((&Record{Type: TBegin, Txn: txn, LSN: lsn}).Encode())...)
		}
		if err := dev.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: closed wal.log holds %d bytes, %v; want its %d bytes of frames", round, len(got), err, len(want))
		}
	}
}

// BenchmarkFileDeviceForce is one transaction's log work on a real file: 5
// update records and a Commit, which forces them.
func BenchmarkFileDeviceForce(b *testing.B) {
	l, dev := openFileLog(b, filepath.Join(b.TempDir(), "wal.log"))
	defer dev.Close()
	r := recOp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 5; j++ {
			if _, err := l.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		lsn, err := l.Append(&Record{Type: TCommit, Txn: 1})
		if err == nil {
			err = l.Commit(lsn)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
