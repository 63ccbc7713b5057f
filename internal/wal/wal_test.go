package wal

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"blinktree/internal/page"
)

func sampleRecords() []*Record {
	return []*Record{
		{Type: TBegin, Txn: 1},
		{Type: TRecOp, Txn: 1, PrevLSN: 1, Op: OpInsert, Page: 5,
			Key: []byte("k1"), Val: []byte("v1"), OldVal: nil},
		{Type: TSMO, SMO: SMOSplit,
			Images:   []PageImage{{ID: 5, Data: []byte("img5")}, {ID: 6, Data: []byte("img6")}},
			Allocs:   []page.PageID{6},
			Deallocs: nil},
		{Type: TRecOp, Txn: 1, PrevLSN: 2, Op: OpUpdate, Page: 6, CLR: true, UndoNext: 1,
			Key: []byte("k1"), Val: []byte("v2"), OldVal: []byte("v1")},
		{Type: TCommit, Txn: 1, PrevLSN: 4},
		{Type: TCheckpoint, Active: []ActiveTxn{{ID: 2, LastLSN: 3}}},
		{Type: TAbort, Txn: 2, PrevLSN: 3},
		// A page's first change after a checkpoint, and an image-only record.
		{Type: TRecOp, Txn: 3, Op: OpDelete, Page: 7, CLR: true, UndoNext: 2,
			Key: []byte("k7"), OldVal: []byte("v7"), Images: []PageImage{{ID: 7, Data: []byte("img7")}}},
		{Type: TRecOp, Page: 8, Images: []PageImage{{ID: 8, Data: []byte("img8")}}},
	}
}

// TestRecOpImageFlag: the image flag is a new bit of the record-op flags
// byte, so a record written before it — flags 0 or 1 — decodes exactly as
// it did, and the bit is canonical: set if and only if images follow.
func TestRecOpImageFlag(t *testing.T) {
	old := &Record{Type: TRecOp, Txn: 1, Op: OpUpdate, Page: 5, CLR: true, Key: []byte("k"), Val: []byte("v")}
	enc := old.Encode()
	if flags := enc[26]; flags != flagCLR {
		t.Fatalf("a record without images encodes flags %#x, want %#x", flags, flagCLR)
	}
	if got, err := DecodeRecord(enc); err != nil || !reflect.DeepEqual(got, old) || got.Images != nil {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, old)
	}
	for _, flags := range []byte{flagImages, flagCLR | flagImages, 4, 0x80} {
		bad := append([]byte(nil), enc...)
		bad[26] = flags
		if _, err := DecodeRecord(bad); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("flags %#x with no image list: %v, want ErrBadRecord", flags, err)
		}
	}
	// The flag with an empty list is not what Encode writes.
	empty := append(append([]byte(nil), enc...), make([]byte, 8)...)
	empty[26] |= flagImages
	if _, err := DecodeRecord(empty); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("image flag with zero images: %v, want ErrBadRecord", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, r := range sampleRecords() {
		r.LSN = LSN(i + 1)
		got, err := DecodeRecord(r.Encode())
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, r)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecord(nil); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("nil: %v", err)
	}
	if _, err := DecodeRecord([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("unknown type: %v", err)
	}
	r := &Record{Type: TRecOp, Key: []byte("hello")}
	enc := r.Encode()
	if _, err := DecodeRecord(enc[:len(enc)-2]); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("truncated: %v", err)
	}
}

func TestTypeAndOpStrings(t *testing.T) {
	if TBegin.String() != "BEGIN" || TSMO.String() != "SMO" || Type(99).String() == "" {
		t.Fatal("Type.String broken")
	}
	if OpInsert.String() != "insert" || Op(9).String() == "" {
		t.Fatal("Op.String broken")
	}
	if SMOSplit.String() != "split" || SMOConsolidate.String() != "consolidate" || SMOKind(99).String() == "" {
		t.Fatal("SMOKind.String broken")
	}
	for _, r := range sampleRecords() {
		if r.String() == "" {
			t.Fatal("empty record String")
		}
	}
}

func TestLogAssignsDenseLSNs(t *testing.T) {
	l, err := NewLog(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		lsn, err := l.Append(&Record{Type: TBegin, Txn: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != LSN(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if l.NextLSN() != 6 {
		t.Fatalf("NextLSN = %d, want 6", l.NextLSN())
	}
}

func TestFlushIdempotent(t *testing.T) {
	dev := NewMemDevice()
	l, _ := NewLog(dev)
	l.Append(&Record{Type: TBegin, Txn: 1})
	if err := l.Flush(1); err != nil {
		t.Fatal(err)
	}
	syncs := dev.Syncs()
	// Re-flushing an already durable LSN must not force another sync.
	if err := l.Flush(1); err != nil {
		t.Fatal(err)
	}
	if dev.Syncs() != syncs {
		t.Fatal("redundant Flush forced a device sync")
	}
	if l.FlushedLSN() != 1 {
		t.Fatalf("FlushedLSN = %d", l.FlushedLSN())
	}
}

func TestCrashLosesUnsyncedTail(t *testing.T) {
	dev := NewMemDevice()
	l, _ := NewLog(dev)
	l.Append(&Record{Type: TBegin, Txn: 1})
	l.Flush(1)
	l.Append(&Record{Type: TCommit, Txn: 1})
	// No flush: the commit record must not survive the crash.
	dev.Crash()
	l2, err := NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := l2.DurableRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != TBegin {
		t.Fatalf("durable records after crash = %v", recs)
	}
	// LSN numbering resumes after the durable horizon.
	lsn, _ := l2.Append(&Record{Type: TAbort, Txn: 1})
	if lsn != 2 {
		t.Fatalf("resumed LSN = %d, want 2", lsn)
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := NewLog(dev)
	want := sampleRecords()
	for _, r := range want {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	dev.Close()

	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	l2, err := NewLog(dev2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l2.DurableRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if l2.NextLSN() != LSN(len(want)+1) {
		t.Fatalf("NextLSN after reopen = %d", l2.NextLSN())
	}
}

func TestFileDeviceToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := NewLog(dev)
	l.Append(&Record{Type: TBegin, Txn: 1})
	l.FlushAll()
	// Simulate a torn write: append garbage bytes directly.
	dev.Append([]byte{0xFF, 0x01, 0x02})
	dev.Sync()
	dev.Close()

	dev2, _ := OpenFileDevice(path)
	defer dev2.Close()
	l2, err := NewLog(dev2)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := l2.DurableRecords()
	if len(recs) != 1 {
		t.Fatalf("records after torn tail = %d, want 1", len(recs))
	}
}

func TestAnalyzeBasic(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Type: TBegin, Txn: 1},
		{LSN: 2, Type: TRecOp, Txn: 1, PrevLSN: 1, Op: OpInsert, Key: []byte("a")},
		{LSN: 3, Type: TBegin, Txn: 2},
		{LSN: 4, Type: TCommit, Txn: 1, PrevLSN: 2},
		{LSN: 5, Type: TRecOp, Txn: 2, PrevLSN: 3, Op: OpInsert, Key: []byte("b")},
	}
	a := Analyze(recs)
	if !a.Committed[1] || a.Committed[2] {
		t.Fatalf("committed = %v", a.Committed)
	}
	if got := a.Losers[2]; got != 5 {
		t.Fatalf("loser 2 lastLSN = %d, want 5", got)
	}
	if _, ok := a.Losers[1]; ok {
		t.Fatal("committed txn 1 listed as loser")
	}
	if a.MaxTxn != 2 {
		t.Fatalf("MaxTxn = %d", a.MaxTxn)
	}
	if a.RedoStart != 1 {
		t.Fatalf("RedoStart = %d", a.RedoStart)
	}
}

func TestAnalyzeCheckpoint(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Type: TBegin, Txn: 1},
		{LSN: 2, Type: TRecOp, Txn: 1, PrevLSN: 1, Op: OpInsert},
		{LSN: 3, Type: TCheckpoint, Active: []ActiveTxn{{ID: 1, LastLSN: 2}}},
		{LSN: 4, Type: TRecOp, Txn: 1, PrevLSN: 2, Op: OpInsert},
	}
	a := Analyze(recs)
	if a.RedoStart != 4 {
		t.Fatalf("RedoStart = %d, want 4", a.RedoStart)
	}
	if a.Losers[1] != 4 {
		t.Fatalf("loser lastLSN = %d, want 4", a.Losers[1])
	}
	redo := a.RedoRecords()
	if len(redo) != 1 || redo[0].LSN != 4 {
		t.Fatalf("redo records = %v", redo)
	}
}

func TestAnalyzeAbortedTxnNotLoser(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Type: TBegin, Txn: 7},
		{LSN: 2, Type: TRecOp, Txn: 7, PrevLSN: 1},
		{LSN: 3, Type: TAbort, Txn: 7, PrevLSN: 2},
	}
	a := Analyze(recs)
	if len(a.Losers) != 0 {
		t.Fatalf("losers = %v, want none", a.Losers)
	}
}

func TestUndoChainSkipsCLRs(t *testing.T) {
	// Txn 1: op@2, op@3, CLR@4 compensating op@3 (UndoNext = 2), then crash.
	// The undo chain must contain only op@2.
	recs := []*Record{
		{LSN: 1, Type: TBegin, Txn: 1},
		{LSN: 2, Type: TRecOp, Txn: 1, PrevLSN: 1, Op: OpInsert, Key: []byte("a")},
		{LSN: 3, Type: TRecOp, Txn: 1, PrevLSN: 2, Op: OpInsert, Key: []byte("b")},
		{LSN: 4, Type: TRecOp, Txn: 1, PrevLSN: 3, CLR: true, UndoNext: 2, Op: OpDelete, Key: []byte("b")},
	}
	a := Analyze(recs)
	chain := a.UndoChain(1)
	if len(chain) != 1 || chain[0].LSN != 2 {
		lsns := make([]LSN, len(chain))
		for i, r := range chain {
			lsns[i] = r.LSN
		}
		t.Fatalf("undo chain = %v, want [2]", lsns)
	}
}

func TestUndoChainFullyCompensated(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Type: TBegin, Txn: 1},
		{LSN: 2, Type: TRecOp, Txn: 1, PrevLSN: 1, Op: OpInsert, Key: []byte("a")},
		{LSN: 3, Type: TRecOp, Txn: 1, PrevLSN: 2, CLR: true, UndoNext: 0, Op: OpDelete, Key: []byte("a")},
	}
	a := Analyze(recs)
	if chain := a.UndoChain(1); len(chain) != 0 {
		t.Fatalf("undo chain = %d records, want 0", len(chain))
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, _ := NewLog(NewMemDevice())
	var wg sync.WaitGroup
	const goroutines, per = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(&Record{Type: TBegin, Txn: id}); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	l.FlushAll()
	recs, err := l.DurableRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*per {
		t.Fatalf("records = %d, want %d", len(recs), goroutines*per)
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

// TestQuickRecordRoundTrip property-tests encode/decode over random records.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRecord(rng)
		got, err := DecodeRecord(r.Encode())
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return reflect.DeepEqual(r, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func randomRecord(rng *rand.Rand) *Record {
	randBytes := func(n int) []byte {
		b := make([]byte, rng.Intn(n))
		if len(b) == 0 {
			return nil // zero-length fields decode to nil
		}
		rng.Read(b)
		return b
	}
	r := &Record{
		LSN:     LSN(rng.Uint64() % 10000),
		Txn:     rng.Uint64() % 100,
		PrevLSN: LSN(rng.Uint64() % 10000),
	}
	switch rng.Intn(6) {
	case 0:
		r.Type = TBegin
	case 1:
		r.Type = TCommit
	case 2:
		r.Type = TAbort
	case 3:
		r.Type = TRecOp
		r.Op = Op(rng.Intn(3) + 1)
		r.Page = page.PageID(rng.Uint64() % 1000)
		r.CLR = rng.Intn(2) == 0
		r.UndoNext = LSN(rng.Uint64() % 100)
		r.Key = randBytes(40)
		r.Val = randBytes(40)
		r.OldVal = randBytes(40)
	case 4:
		r.Type = TSMO
		r.SMO = SMOKind(rng.Intn(6) + 1)
		for i := 0; i < rng.Intn(4); i++ {
			r.Images = append(r.Images, PageImage{
				ID:   page.PageID(rng.Uint64()%1000 + 1),
				Data: randBytes(64),
			})
		}
		for i := 0; i < rng.Intn(3); i++ {
			r.Allocs = append(r.Allocs, page.PageID(rng.Uint64()%1000+1))
		}
		for i := 0; i < rng.Intn(3); i++ {
			r.Deallocs = append(r.Deallocs, page.PageID(rng.Uint64()%1000+1))
		}
	case 5:
		r.Type = TCheckpoint
		r.Txn = 0
		r.PrevLSN = 0
		for i := 0; i < rng.Intn(5); i++ {
			r.Active = append(r.Active, ActiveTxn{ID: rng.Uint64() % 50, LastLSN: LSN(rng.Uint64() % 500)})
		}
	}
	return r
}

func BenchmarkAppendFlushMem(b *testing.B) {
	l, _ := NewLog(NewMemDevice())
	r := &Record{Type: TRecOp, Txn: 1, Op: OpInsert, Page: 3,
		Key: []byte("key-000001"), Val: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn, err := l.Append(r)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Flush(lsn); err != nil {
			b.Fatal(err)
		}
	}
}
