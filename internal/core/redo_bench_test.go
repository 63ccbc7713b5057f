package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// buildRedoMix leaves in dir a file-backed store whose whole log a reopen
// must redo: 200 000 operations from rand.NewSource(1), each a Put (64-byte
// value) or a Delete with equal odds, on 16-byte keys drawn from 400 000,
// with 4 KiB pages, a 1 024-frame pool and DurabilityAsync. The queue is
// drained every 1 000 operations on the caller (no workers), so the log is
// the same on every build. The log is forced and the tree abandoned: no
// checkpoint, and only the pages the pool evicted are on disk.
func buildRedoMix(b *testing.B, dir string) {
	store, dev := openRedoFiles(b, dir)
	defer store.Close()
	defer dev.Close()
	tr, err := New(Options{
		PageSize: 4096, CacheSize: 1024, Workers: WorkersNone,
		Durability: wal.DurAsync, Store: store, LogDevice: dev,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 64)
	for i := 0; i < 200_000; i++ {
		k := []byte(fmt.Sprintf("%016d", rng.Intn(400_000)))
		if rng.Intn(2) == 0 {
			rng.Read(val)
			err = tr.Put(k, val)
		} else if err = tr.Delete(k); errors.Is(err, ErrKeyNotFound) {
			err = nil
		}
		if err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			tr.DrainTodo()
		}
	}
	if err := tr.FlushLog(); err != nil {
		b.Fatal(err)
	}
	tr.Abandon()
}

// openRedoFiles opens dir's page file and log.
func openRedoFiles(b *testing.B, dir string) (*storage.FileStore, *wal.FileDevice) {
	store, err := storage.OpenFileStore(filepath.Join(dir, "pages.db"), 4096)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := wal.OpenFileDevice(filepath.Join(dir, "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	return store, dev
}

// copyDir copies every file of src into dst.
func copyDir(b *testing.B, src, dst string) {
	ents, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
		}
		in.Close()
		if err == nil {
			err = out.Close()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRedo times the reopen of buildRedoMix's directory, which redoes
// its whole log (about 115 000 records, 110 000 of them record operations),
// at the default pool and at 1 024 frames. Each iteration opens a fresh copy
// of the directory; only New is timed. The recovery counts are reported so
// that two builds can be checked to have redone the same work.
func BenchmarkRedo(b *testing.B) {
	src := b.TempDir()
	buildRedoMix(b, src)
	for _, frames := range []int{4096, 1024} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			var rs RecoveryStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				copyDir(b, src, dir)
				store, dev := openRedoFiles(b, dir)
				b.StartTimer()
				tr, err := New(Options{
					PageSize: 4096, CacheSize: frames, Workers: WorkersNone,
					Durability: wal.DurAsync, Store: store, LogDevice: dev,
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				rs = tr.RecoveryStats()
				tr.Abandon()
				store.Close()
				dev.Close()
				os.RemoveAll(dir) // keep one copy on disk at a time
			}
			b.ReportMetric(float64(rs.RecordsScanned), "records")
			b.ReportMetric(float64(rs.RecOpsRedone), "recops")
			b.ReportMetric(float64(rs.ImagesApplied), "images")
			b.ReportMetric(float64(rs.SkippedByLSN), "skipped")
		})
	}
}
