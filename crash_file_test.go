package blinktree_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blinktree"
	"blinktree/internal/core"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// TestFileBackedWALTruncationSweep exercises crash recovery on the real
// file-backed store: build a durable tree, keep a copy of its directory,
// then truncate wal.log at a sweep of byte offsets — including offsets that
// land mid-frame, the torn-tail case — and require every truncation to
// recover to a tree that passes the deep audit and holds a prefix of the
// acknowledged history. The history has a checkpoint in the middle, so cuts
// above it restart from the master record and cuts below it find the master
// naming a position past the end of the log and read all of it. (A log cut
// below a checkpoint goes with the page file as it was before the
// checkpoint's flush: pages never reach the disk ahead of their log.)
func TestFileBackedWALTruncationSweep(t *testing.T) {
	src := t.TempDir()
	tr, err := blinktree.Open(blinktree.Options{Path: src, PageSize: 512, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	// History: puts with a checkpoint midway so there is an acknowledged
	// prefix and a master record.
	const total = 60
	var pagesBefore []byte
	var checkpointEnd int
	for i := 0; i < total; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := tr.Put([]byte(k), []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		if i == total/2 {
			if pagesBefore, err = os.ReadFile(filepath.Join(src, "pages.db")); err != nil {
				t.Fatal(err)
			}
			if err := tr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// The checkpoint's frame ends the log as it stood: past it, an
			// open log's file holds zeros written ahead.
			master, err := os.ReadFile(filepath.Join(src, "wal.log.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			m, err := wal.DecodeMaster(master)
			if err != nil {
				t.Fatal(err)
			}
			log, err := os.ReadFile(filepath.Join(src, "wal.log"))
			if err != nil || int64(len(log)) <= m.Pos {
				t.Fatalf("wal.log is %d bytes, %v; the master names position %d", len(log), err, m.Pos)
			}
			checkpointEnd = int(m.Pos) + len(wal.SplitRun(log[m.Pos:])[0])
		}
	}
	tr.Maintain()
	if err := tr.FlushLog(); err != nil {
		t.Fatal(err)
	}
	// Abandon-style stop: close the tree normally but keep the pre-close
	// copy of the directory as the crash image. (Close flushes; the sweep
	// wants the un-flushed shape, so copy first.)
	pages, err := os.ReadFile(filepath.Join(src, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	master, err := os.ReadFile(filepath.Join(src, "wal.log.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(wal) < 64 {
		t.Fatalf("wal too small to sweep: %d bytes", len(wal))
	}

	// Sweep truncation points: step through the frames in uneven strides so
	// both frame boundaries and mid-frame (torn) offsets are hit. Past the
	// last frame the open log's file holds the zeros written ahead, and
	// every cut there recovers the same tree: cut only at their first, one
	// interior and their last byte.
	frames := 0
	for frames+8 <= len(wal) && binary.LittleEndian.Uint32(wal[frames:]) != 0 {
		frames += 8 + int(binary.LittleEndian.Uint32(wal[frames:]))
	}
	if len(wal)-frames < 3 {
		t.Fatalf("wal.log has %d bytes past its last frame; the sweep expects the zeros written ahead", len(wal)-frames)
	}
	cuts := []int{len(wal), (frames + len(wal)) / 2, frames + 1}
	for cut := frames; cut > 0; cut -= 37 {
		cuts = append(cuts, cut)
	}
	fromMaster, fromStart := 0, 0
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log.ckpt"), master, 0o644); err != nil {
			t.Fatal(err)
		}
		image := pages
		if cut < checkpointEnd {
			image = pagesBefore
		}
		if err := os.WriteFile(filepath.Join(dir, "pages.db"), image, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 512, Workers: -1})
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		rep, err := rec.VerifyDeep()
		if err != nil {
			t.Fatalf("cut %d: deep audit: %v", cut, err)
		}
		if rec.RecoveryStats().FullLogRead == "" {
			fromMaster++
		} else {
			fromStart++
		}
		// The recovered keys must be a contiguous prefix of the insert
		// history: key-K present implies key-(K-1) present.
		n := 0
		for i := 0; i < total; i++ {
			v, err := rec.Get([]byte(fmt.Sprintf("key-%04d", i)))
			if err == blinktree.ErrKeyNotFound {
				break
			}
			if err != nil {
				t.Fatalf("cut %d: get: %v", cut, err)
			}
			if string(v) != fmt.Sprintf("val-%04d", i) {
				t.Fatalf("cut %d: key-%04d has value %q", cut, i, v)
			}
			n++
		}
		if n != rep.Records {
			t.Fatalf("cut %d: recovered %d records but prefix length is %d (holes)", cut, rep.Records, n)
		}
		// An uncut log must recover the complete history.
		if cut == len(wal) && n != total {
			t.Fatalf("full log recovered only %d/%d records", n, total)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
	if fromMaster == 0 || fromStart == 0 {
		t.Fatalf("%d cuts restarted from the master record and %d from the start of the log; the sweep should see both", fromMaster, fromStart)
	}
}

// syncSnapshotStore copies the store's directory right after the first
// successful Sync once armed: the crash image of a power cut at that point.
type syncSnapshotStore struct {
	storage.Store
	armed func()
}

func (s *syncSnapshotStore) Sync() error {
	err := s.Store.Sync()
	if err == nil && s.armed != nil {
		s.armed()
		s.armed = nil
	}
	return err
}

// TestFileBackedBulkLoadCutBeforeCommit cuts power on the real files of a
// bulk load between its pre-commit store Sync — every page of the load
// durable, pages.db's header listing them allocated — and its commit
// record. Recovery must come up with the empty tree the load started from
// and release the load's pages (VerifyDeep fails on a leaked one); the same
// files a moment later, the load complete, recover it whole.
func TestFileBackedBulkLoadCutBeforeCommit(t *testing.T) {
	src := t.TempDir()
	fs, err := storage.OpenFileStore(filepath.Join(src, "pages.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := wal.OpenFileDevice(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	store := &syncSnapshotStore{Store: fs}
	tr, err := core.New(core.Options{PageSize: 512, Workers: core.WorkersNone, BulkChunkPages: 8, Store: store, LogDevice: dev})
	if err != nil {
		t.Fatal(err)
	}
	var cut string
	store.armed = func() { cut = copyStore(t, src) }
	const n = 3000
	i := 0
	if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		i++
		return []byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("val-%06d", i)), i <= n
	}, 0.85); err != nil {
		t.Fatal(err)
	}
	loaded := tr.Stats().BulkLoadPages
	done := copyStore(t, src)
	tr.Abandon()
	dev.Close()
	fs.Close()

	for _, c := range []struct {
		name    string
		dir     string
		records int
	}{{"cut between the pre-commit Sync and the commit record", cut, 0}, {"load complete", done, n}} {
		rec, err := blinktree.Open(blinktree.Options{Path: c.dir, PageSize: 512, Workers: -1})
		if err != nil {
			t.Fatalf("%s: recovery: %v", c.name, err)
		}
		rep, err := rec.VerifyDeep()
		if err != nil {
			t.Fatalf("%s: deep audit: %v", c.name, err)
		}
		rs := rec.RecoveryStats()
		if rep.Records != c.records {
			t.Fatalf("%s: recovered %d records, want %d", c.name, rep.Records, c.records)
		}
		if c.records == 0 && (rs.BulkChunksSkipped == 0 || rs.DeallocsReplayed < int(loaded)) {
			t.Fatalf("%s: %+v; want the load's %d pages released", c.name, rs, loaded)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileBackedProcessDeath kills the process on real files: sync commits
// with autocommitted Puts between them, then Abandon — no Close, no final
// force — and the files copied as the dead process left them. Recovery must
// bring back every acknowledged commit and every Put a commit's force wrote
// out; the Puts after the last commit were still in the log's tail in
// memory, and a process death loses them.
func TestFileBackedProcessDeath(t *testing.T) {
	src := t.TempDir()
	fs, err := storage.OpenFileStore(filepath.Join(src, "pages.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	dev, err := wal.OpenFileDevice(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	tr, err := core.New(core.Options{PageSize: 512, Workers: core.WorkersNone, Store: fs, LogDevice: dev})
	if err != nil {
		t.Fatal(err)
	}
	const rounds, puts = 20, 5
	for r := 0; r < rounds; r++ {
		x, err := tr.Begin()
		for _, k := range []string{"a", "b"} {
			if err == nil {
				err = x.Put([]byte(fmt.Sprintf("txn-%02d-%s", r, k)), []byte("committed"))
			}
		}
		if err == nil {
			err = x.Commit()
		}
		for i := 0; i < puts && err == nil; i++ {
			err = tr.Put([]byte(fmt.Sprintf("put-%02d-%d", r, i)), []byte("auto"))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	tr.Abandon()
	dir := copyStore(t, src)

	rec, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 512, Workers: -1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if _, err := rec.VerifyDeep(); err != nil {
		t.Fatalf("deep audit: %v", err)
	}
	for r := 0; r < rounds; r++ {
		for _, k := range []string{"a", "b"} {
			if _, err := rec.Get([]byte(fmt.Sprintf("txn-%02d-%s", r, k))); err != nil {
				t.Fatalf("acknowledged commit %d lost: %v", r, err)
			}
		}
		// The next round's commit forced this round's Puts; the last
		// round's stayed in the tail.
		forced := r < rounds-1
		for i := 0; i < puts; i++ {
			if _, err := rec.Get([]byte(fmt.Sprintf("put-%02d-%d", r, i))); forced != (err == nil) {
				t.Fatalf("put %d of round %d: %v; forced by a commit: %v", i, r, err, forced)
			}
		}
	}
}

// copyStore copies the files of the store in src that exist into a new
// temporary directory: a crash image when src is open, having flushed its log.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{"pages.db", "wal.log", "wal.log.ckpt"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recoverAndDump opens the store in dir, audits it, and returns its contents
// in key order with what recovery did. It leaves the store closed.
func recoverAndDump(t *testing.T, dir string) ([]string, blinktree.RecoveryStats) {
	t.Helper()
	tr, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 512, Workers: -1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, err := tr.VerifyDeep(); err != nil {
		t.Fatalf("deep audit: %v", err)
	}
	var got []string
	if err := tr.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return got, tr.RecoveryStats()
}

// TestMasterRecordFallbacks damages, loses and misplaces the master record
// of real store files in every way the open is meant to survive, and
// requires each store to come up with exactly the contents a full-log
// recovery of the same files produces — asserted against a copy whose master
// record is removed — and to report how it started.
func TestMasterRecordFallbacks(t *testing.T) {
	put := func(tr *blinktree.Tree, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	open := func(dir string) *blinktree.Tree {
		t.Helper()
		tr, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 512, Workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	// image is the crash image of a store that was checkpointed (unless
	// a transaction was open: txnAtCheckpoint) and killed 40 puts and one
	// committed transaction later.
	image := func(earlierCheckpoint, txnAtCheckpoint bool) string {
		t.Helper()
		src := t.TempDir()
		tr := open(src)
		put(tr, 0, 40)
		if earlierCheckpoint {
			if err := tr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		put(tr, 40, 80)
		tr.Maintain()
		if txnAtCheckpoint {
			x, err := tr.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := x.Put([]byte("loser"), []byte("dirty")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		put(tr, 80, 120)
		x, err := tr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		x.Put([]byte("key-txn"), []byte("committed"))
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tr.FlushLog(); err != nil {
			t.Fatal(err)
		}
		return copyStore(t, src)
	}
	masterOf := func(dir string) wal.Master {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "wal.log.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := wal.DecodeMaster(b)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	setMaster := func(dir string, b []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "wal.log.ckpt"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		dir  func() string
		// why is the wanted RecoveryStats.FullLogRead; records, when not
		// zero, the wanted number of recovered records; losers the
		// wanted number of transactions rolled back.
		why     string
		records int
		losers  int
	}{
		{name: "valid master", dir: func() string { return image(false, false) }, records: 121},
		{name: "master missing", why: wal.WhyNoMaster, records: 121, dir: func() string {
			dir := image(false, false)
			os.Remove(filepath.Join(dir, "wal.log.ckpt"))
			return dir
		}},
		{name: "master checksum bad", why: wal.WhyBadMaster, records: 121, dir: func() string {
			dir := image(false, false)
			b := masterOf(dir).Encode()
			b[4] ^= 0x40 // the checksum itself: position and LSN stay right
			setMaster(dir, b)
			return dir
		}},
		{name: "master names a frame that is not a checkpoint", why: wal.WhyBadMaster, records: 121, dir: func() string {
			dir := image(false, false)
			setMaster(dir, wal.Master{Pos: 0, LSN: 1}.Encode()) // the format record
			return dir
		}},
		{name: "master names the checkpoint by the wrong LSN", why: wal.WhyBadMaster, records: 121, dir: func() string {
			dir := image(false, false)
			m := masterOf(dir)
			m.LSN++
			setMaster(dir, m.Encode())
			return dir
		}},
		{name: "master beyond the end of a truncated log", why: wal.WhyBadMaster, dir: func() string {
			dir := image(false, false)
			if err := os.Truncate(filepath.Join(dir, "wal.log"), masterOf(dir).Pos-10); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{name: "master left over from a deleted and recreated log", why: wal.WhyBadMaster, records: 30, dir: func() string {
			dir := image(false, false)
			os.Remove(filepath.Join(dir, "wal.log"))
			os.Remove(filepath.Join(dir, "pages.db"))
			tr := open(dir)
			put(tr, 500, 530)
			if err := tr.FlushLog(); err != nil {
				t.Fatal(err)
			}
			return copyStore(t, dir)
		}},
		{name: "store written by the parent commit", why: wal.WhyNoMaster, records: 151, dir: func() string {
			return copyStore(t, filepath.Join("testdata", "parent_store"))
		}},
		{name: "checkpoint with an open transaction, then a kill", why: wal.WhyNoMaster, records: 121, losers: 1,
			dir: func() string { return image(false, true) }},
		{name: "the same after an earlier checkpoint without one", records: 121, losers: 1,
			dir: func() string { return image(true, true) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := c.dir()
			ref := copyStore(t, dir)
			os.Remove(filepath.Join(ref, "wal.log.ckpt"))
			want, refStats := recoverAndDump(t, ref)
			got, rs := recoverAndDump(t, dir)
			if refStats.FullLogRead == "" {
				t.Fatalf("the reference recovery did not read the whole log: %+v", refStats)
			}
			if rs.FullLogRead != c.why {
				t.Errorf("FullLogRead = %q, want %q (%+v)", rs.FullLogRead, c.why, rs)
			}
			if c.why == "" && rs.RecordsScanned >= refStats.RecordsScanned {
				t.Errorf("started at the master record yet decoded %d records; the whole log has %d", rs.RecordsScanned, refStats.RecordsScanned)
			}
			if rs.LosersUndone != c.losers || refStats.LosersUndone != c.losers {
				t.Errorf("losers undone: %d, reference %d; want %d", rs.LosersUndone, refStats.LosersUndone, c.losers)
			}
			if c.records != 0 && len(got) != c.records {
				t.Errorf("recovered %d records, want %d", len(got), c.records)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("contents differ from a full-log recovery of the same files:\n got %d records %v\nwant %d records %v", len(got), got, len(want), want)
			}
			// The open's own Close left a usable master behind.
			again, rs2 := recoverAndDump(t, dir)
			if rs2.FullLogRead != "" || rs2.RecordsScanned != 1 || fmt.Sprint(again) != fmt.Sprint(got) {
				t.Errorf("second open: %+v with %d records; want a one-record restart and the same %d", rs2, len(again), len(got))
			}
		})
	}
}
