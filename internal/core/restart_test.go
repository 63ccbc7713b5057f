package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// readCountingDevice counts the reads of the log an open makes.
type readCountingDevice struct {
	wal.Device
	reads int
}

func (d *readCountingDevice) ReadDurable() ([][]byte, error) {
	d.reads++
	return d.Device.ReadDurable()
}

func (d *readCountingDevice) ReadRestart() (wal.Restart, error) {
	d.reads++
	return d.Device.ReadRestart()
}

// restartEnv is a store and log that outlive the trees opened over them, in
// memory or in files, with a way to lose the master record. kill is process
// death: no flush, and what the log device had not synced is gone.
type restartEnv struct {
	open       func(t *testing.T) (*Tree, *readCountingDevice)
	kill       func(tr *Tree)
	dropMaster func(t *testing.T)
	frames     func(t *testing.T) [][]byte
}

func newRestartEnv(t *testing.T, files bool) *restartEnv {
	opts := func(store storage.Store, dev wal.Device) (*Tree, *readCountingDevice) {
		cd := &readCountingDevice{Device: dev}
		tr, err := New(Options{PageSize: 512, Workers: WorkersNone, MinFill: 0.4, Store: store, LogDevice: cd})
		if err != nil {
			t.Fatal(err)
		}
		return tr, cd
	}
	if !files {
		store, dev := storage.NewMemStore(512), wal.NewMemDevice()
		return &restartEnv{
			open: func(t *testing.T) (*Tree, *readCountingDevice) { return opts(store, dev) },
			kill: func(tr *Tree) { tr.Abandon(); dev.Crash() },
			dropMaster: func(t *testing.T) {
				// A MemDevice keeps its master for life: move the frames.
				frames, _ := dev.ReadDurable()
				dev = wal.NewMemDevice()
				for _, f := range frames {
					dev.Append(f)
				}
				dev.Sync()
			},
			frames: func(t *testing.T) [][]byte { f, _ := dev.ReadDurable(); return f },
		}
	}
	dir := t.TempDir()
	openDev := func(t *testing.T) *wal.FileDevice {
		dev, err := wal.OpenFileDevice(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		return dev
	}
	return &restartEnv{
		open: func(t *testing.T) (*Tree, *readCountingDevice) {
			store, err := storage.OpenFileStore(filepath.Join(dir, "pages.db"), 512)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			return opts(store, openDev(t))
		},
		kill: (*Tree).Abandon,
		dropMaster: func(t *testing.T) {
			if err := os.Remove(filepath.Join(dir, "wal.log.ckpt")); err != nil {
				t.Fatal(err)
			}
		},
		frames: func(t *testing.T) [][]byte { f, _ := openDev(t).ReadDurable(); return f },
	}
}

// TestRestartCostIndependentOfHistory: two stores, one with ten times the
// history of the other, each checkpointed and then given the same five-
// record tail before a kill. Reopening decodes exactly the checkpoint record
// and the tail in both — equal counts, equal bytes, one read of the device —
// while without the master record the same reopen decodes the whole log, and
// the two differ by their histories. Both ways recover the same contents.
func TestRestartCostIndependentOfHistory(t *testing.T) {
	const small, tail = 150, 5
	for _, files := range []bool{false, true} {
		name := map[bool]string{false: "MemDevice", true: "FileDevice"}[files]
		t.Run(name, func(t *testing.T) {
			var withMaster, without [2]RecoveryStats
			var history [2]int
			for i, n := range []int{small, 10 * small} {
				env := newRestartEnv(t, files)
				tr, _ := env.open(t)
				for k := 0; k < n; k++ {
					if err := tr.Put(key(k), valb(k)); err != nil {
						t.Fatal(err)
					}
				}
				tr.DrainTodo()
				if err := tr.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < tail; k++ { // same-size updates: no split, no SMO
					if err := tr.Put(key(k), valb(k+1)); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.FlushLog(); err != nil {
					t.Fatal(err)
				}
				env.kill(tr)
				frames := env.frames(t)
				history[i] = len(frames) - tail - 1
				var tailBytes int64
				for _, f := range frames[history[i]:] {
					tailBytes += int64(len(f))
				}

				check := func(tr *Tree, cd *readCountingDevice) {
					t.Helper()
					if cd.reads != 1 {
						t.Errorf("n=%d: the open read the log device %d times, want once", n, cd.reads)
					}
					for k := 0; k < n; k++ {
						want := valb(k)
						if k < tail {
							want = valb(k + 1)
						}
						if got, err := tr.Get(key(k)); err != nil || !bytes.Equal(got, want) {
							t.Fatalf("n=%d: key %d = %q, %v; want %q", n, k, got, err, want)
						}
					}
					mustVerify(t, tr)
					env.kill(tr)
				}
				tr, cd := env.open(t)
				withMaster[i] = tr.RecoveryStats()
				if rs := withMaster[i]; rs.FullLogRead != "" || rs.RecordsScanned != tail+1 ||
					rs.LogBytesRead != tailBytes || rs.RestartLSN != uint64(history[i]+1) || rs.RecOpsRedone != tail {
					t.Errorf("n=%d: %+v; want %d records, %d bytes from LSN %d and %d redone", n, rs, tail+1, tailBytes, history[i]+1, tail)
				}
				check(tr, cd)

				env.dropMaster(t)
				tr, cd = env.open(t)
				without[i] = tr.RecoveryStats()
				if rs := without[i]; rs.FullLogRead != wal.WhyNoMaster || rs.RecordsScanned != len(frames) || rs.RestartLSN != 1 {
					t.Errorf("n=%d, no master: %+v; want all %d records read from LSN 1", n, rs, len(frames))
				}
				check(tr, cd)
			}
			if a, b := withMaster[0], withMaster[1]; a.RecordsScanned != b.RecordsScanned || a.LogBytesRead != b.LogBytesRead {
				t.Errorf("restart cost depends on history: %d records, %d bytes after %d records; %d, %d after %d",
					a.RecordsScanned, a.LogBytesRead, history[0], b.RecordsScanned, b.LogBytesRead, history[1])
			}
			if got, want := without[1].RecordsScanned-without[0].RecordsScanned, history[1]-history[0]; got != want {
				t.Errorf("without a master the two opens differ by %d records, want the histories' %d", got, want)
			}
		})
	}
}

// TestCloseEndsWithCheckpoint: a clean shutdown restarts by reading one
// record and redoing nothing; with a transaction left open the record is
// written but not made the restart point, and the loser is undone from an
// earlier checkpoint's tail, or from the whole log when there is none.
func TestCloseEndsWithCheckpoint(t *testing.T) {
	env := newRestartEnv(t, false)
	tr, _ := env.open(t)
	for k := 0; k < 200; k++ {
		tr.Put(key(k), valb(k))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr, _ = env.open(t)
	rs := tr.RecoveryStats()
	if rs.FullLogRead != "" || rs.RecordsScanned != 1 || rs.SMOsRedone+rs.RecOpsRedone+rs.SkippedByLSN != 0 {
		t.Fatalf("after a clean shutdown: %+v; want one record read and nothing redone", rs)
	}
	cleanLSN := rs.RestartLSN

	x, _ := tr.Begin()
	x.Put([]byte("loser"), []byte("dirty"))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr, _ = env.open(t)
	if rs := tr.RecoveryStats(); rs.RestartLSN != cleanLSN || rs.LosersUndone != 1 || rs.FullLogRead != "" {
		t.Fatalf("after closing over an open transaction: %+v; want a restart at LSN %d and one loser", rs, cleanLSN)
	}
	if _, err := tr.Get([]byte("loser")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("loser survived: %v", err)
	}
	if got, err := tr.Get(key(7)); err != nil || !bytes.Equal(got, valb(7)) {
		t.Fatalf("key 7 = %q, %v", got, err)
	}
	env.kill(tr)

	env = newRestartEnv(t, false)
	tr, _ = env.open(t)
	tr.Put(key(1), valb(1))
	x, _ = tr.Begin()
	x.Put([]byte("loser"), []byte("dirty"))
	tr.Close()
	tr, _ = env.open(t)
	defer env.kill(tr)
	if rs := tr.RecoveryStats(); rs.FullLogRead != wal.WhyNoMaster || rs.LosersUndone != 1 {
		t.Fatalf("no checkpoint without an open transaction: %+v; want the whole log read and one loser", rs)
	}
	if _, err := tr.Get([]byte("loser")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("loser survived: %v", err)
	}
}

// TestTornPageHealsFromFirstChangeImage: a page torn by a write-back after
// the checkpoint heals from the image its first change since then logged —
// the tail's update carries it — so the open reads the tail only.
func TestTornPageHealsFromFirstChangeImage(t *testing.T) {
	store, dev := storage.NewMemStore(512), wal.NewMemDevice()
	open := func() *Tree {
		tr, err := New(Options{PageSize: 512, Workers: WorkersNone, Store: store, LogDevice: dev})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr := open()
	for k := 0; k < 300; k++ {
		tr.Put(key(k), valb(k))
	}
	tr.DrainTodo()
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tr.Put(key(0), valb(1))
	if got := tr.Stats().FirstChangeImages; got != 1 {
		t.Fatalf("FirstChangeImages = %d after one change since the checkpoint, want 1", got)
	}
	tr.FlushLog()
	tr.Abandon()
	frames, _ := dev.ReadDurable()

	// The tail's update carries its leaf's image; tear the leaf.
	last, err := wal.DecodeRecord(frames[len(frames)-1][8:])
	if err != nil || last.Type != wal.TRecOp || len(last.Images) != 1 || last.Images[0].ID != last.Page {
		t.Fatalf("last record %v, %v; want the tail's update with its page's image", last, err)
	}
	img, _ := store.Read(last.Page)
	img[len(img)/2] ^= 0xff
	store.Write(last.Page, img)

	tr = open()
	defer tr.Abandon()
	rs := tr.RecoveryStats()
	if rs.FullLogRead != "" || rs.RecordsScanned != 2 || rs.CorruptPages != 1 || rs.ImagesApplied != 1 {
		t.Fatalf("%+v; want the tail's 2 records read and the torn page healed from its image", rs)
	}
	for k := 0; k < 300; k++ {
		want := valb(k)
		if k == 0 {
			want = valb(1)
		}
		if got, err := tr.Get(key(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %d = %q, %v", k, got, err)
		}
	}
	mustVerify(t, tr)
}
