package sim

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"blinktree/internal/core"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// cutTxnsPerWrite is sized for about a hundred crash points per seed in the
// strided sweep: a commit costs two persistence operations, its force's
// write and Sync.
const (
	cutWriters      = 4
	cutTxnsPerWrite = 150
)

// yieldWAL hands the processor to another goroutine between the device's
// Sync and the log's bookkeeping, so that other committers append records
// inside that window in most forces, not one in a thousand. The window is
// where a log can go wrong: a record appended after the run was swapped out
// is not durable, whatever the appended horizon says by then.
type yieldWAL struct{ *storage.SimWAL }

func (w yieldWAL) Sync() error {
	err := w.SimWAL.Sync()
	runtime.Gosched()
	return err
}

// concurrentCut runs cutWriters goroutines, each committing
// cutTxnsPerWrite single-key transactions in ack-after-force mode, cuts the
// power at the disk's k-th persistence operation (never, for k = 0),
// recovers, and checks what the committers were promised: every commit a
// goroutine saw acknowledged is present, and what survives of each
// goroutine's commits is a prefix of what it issued (its next transaction
// starts after the previous acknowledgement, so log order is issue order).
// It returns the number of persistence operations the run performed.
func concurrentCut(seed, k int64) (int64, error) {
	// One page holds every key, so no goroutine dies inside a structure
	// modification holding a latch the others then wait on for ever.
	const pageSize = 8192
	disk := storage.NewSimDisk(pageSize, storage.SimConfig{Seed: seed, CrashAt: k, SectorSize: pageSize / 4})
	open := func(dev wal.Device) (*core.Tree, error) {
		return core.New(core.Options{
			PageSize:   pageSize,
			Workers:    core.WorkersNone,
			Store:      disk.Store(),
			LogDevice:  dev,
			Durability: wal.DurSync,
		})
	}
	key := func(g, i int) string { return fmt.Sprintf("g%d-%03d", g, i) }

	var acked [cutWriters]int
	tree, err := open(yieldWAL{disk.WAL()})
	switch {
	case err != nil && disk.Crashed():
		// Cut while formatting: nothing was acknowledged.
	case err != nil:
		return 0, fmt.Errorf("open: %w", err)
	default:
		errs := make(chan error, cutWriters)
		var wg sync.WaitGroup
		for g := 0; g < cutWriters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs <- survivePowerCut(disk, func() error {
					for i := 0; i < cutTxnsPerWrite; i++ {
						x, err := tree.Begin()
						if err == nil {
							err = x.Put([]byte(key(g, i)), []byte("v"))
						}
						if err == nil {
							err = x.Commit()
						}
						if err != nil {
							if disk.Crashed() {
								return nil
							}
							return fmt.Errorf("writer %d, txn %d: %w", g, i, err)
						}
						acked[g] = i + 1
					}
					return nil
				})
			}(g)
		}
		wg.Wait()
		tree.Abandon()
		close(errs)
		for err := range errs {
			if err != nil {
				return 0, err
			}
		}
	}
	ops := disk.Ops()

	disk.Reboot()
	rec, err := open(disk.WAL())
	if err != nil {
		return ops, fmt.Errorf("recovery: %w", err)
	}
	defer rec.Abandon()
	if _, err := rec.VerifyDeep(); err != nil {
		return ops, fmt.Errorf("verify-deep: %w", err)
	}
	have, err := rec.Records()
	if err != nil {
		return ops, fmt.Errorf("records: %w", err)
	}
	for g := 0; g < cutWriters; g++ {
		survived := 0
		for _, ok := have[key(g, survived)]; ok; _, ok = have[key(g, survived)] {
			survived++
		}
		if survived < acked[g] {
			return ops, fmt.Errorf("writer %d: %d commits acknowledged, commit %d lost", g, acked[g], survived)
		}
		for i := survived + 1; i < cutTxnsPerWrite; i++ {
			if _, ok := have[key(g, i)]; ok {
				return ops, fmt.Errorf("writer %d: commit %d survived without commit %d before it", g, i, survived)
			}
		}
	}
	return ops, nil
}

// TestConcurrentCommittersPowerCut sweeps the power cut over a workload of
// concurrent committers sharing forces (ROADMAP item 2b, for the commit
// path): a strided sweep under tier-1, every crash point when
// BLINKTREE_CRASHLOOP is set (the CI crashloop job). The interleaving is the
// scheduler's, not a seed's: a crash point names a position in whatever
// operation stream that run produced.
func TestConcurrentCommittersPowerCut(t *testing.T) {
	stride := int64(7)
	if os.Getenv("BLINKTREE_CRASHLOOP") != "" {
		stride = 1
	}
	for seed := int64(1); seed <= 3; seed++ {
		ops, err := concurrentCut(seed, 0)
		if err != nil {
			t.Fatalf("seed %d, no cut: %v", seed, err)
		}
		// Runs that share forces differently perform fewer or more
		// operations; a cut scheduled past the end is a cut at the end.
		points := 0
		for k := seed; k <= ops; k += stride {
			points++
			if _, err := concurrentCut(seed, k); err != nil {
				t.Errorf("seed %d, cut at op %d of about %d: %v", seed, k, ops, err)
			}
		}
		t.Logf("seed %d: %d crash points over about %d operations", seed, points, ops)
	}
}
