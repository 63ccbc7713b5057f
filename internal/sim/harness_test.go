package sim

import (
	"fmt"
	"os"
	"testing"

	"blinktree/internal/core"
	"blinktree/internal/storage"
)

// TestCrashPointsSmoke is the tier-1 bounded sweep: every crash point of a
// default-size workload, plain fault model (clean power cut, no tearing).
// The acceptance floor for the harness is >= 200 distinct crash points.
func TestCrashPointsSmoke(t *testing.T) {
	rep, err := Run(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("smoke: %s", rep)
	if rep.CrashPoints < 200 {
		t.Fatalf("workload too small: %d crash points, want >= 200", rep.CrashPoints)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestCrashPointsTornSmoke enables both tearing modes on a strided sweep so
// torn pages — healed inside the redo window from the image each page's
// first change after the checkpoint logged — run under tier-1 too.
func TestCrashPointsTornSmoke(t *testing.T) {
	rep, err := Run(Config{Seed: 2, Stride: 3, TornPageWrites: true, TornWALTail: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("torn smoke: %s", rep)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.CorruptPages == 0 {
		t.Errorf("no recovery healed a torn page (%d torn); the first-change images are not exercised", rep.TornPages)
	}
}

// TestCrashPointsBulkLoad seeds the workload through the chunked bulk
// loader (one leaf per chunk record) and enumerates every crash point,
// including all of those inside the load itself. Zero violations means the
// load is all-or-nothing at every boundary: uncommitted chunk records are
// skipped wholesale on recovery, and the committed load survives entire.
func TestCrashPointsBulkLoad(t *testing.T) {
	rep, err := Run(Config{Seed: 3, BulkLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bulkload: %s", rep)
	if rep.CrashPoints < 200 {
		t.Fatalf("workload too small: %d crash points, want >= 200", rep.CrashPoints)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestCrashPointsBulkLoadTorn is the bulk-load sweep under both tearing
// modes: a load writes its pages only to the store, so a cut while they are
// written, or while the commit record is, must still leave the load
// all-or-nothing, with the pages of an uncommitted load released and every
// page torn after the checkpoint healed. Strided in tier-1; BLINKTREE_CRASHLOOP
// runs every crash point.
func TestCrashPointsBulkLoadTorn(t *testing.T) {
	stride := 3
	if os.Getenv("BLINKTREE_CRASHLOOP") != "" {
		stride = 1
	}
	rep, err := Run(Config{Seed: 5, BulkLoad: true, Stride: stride, TornPageWrites: true, TornWALTail: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bulkload torn: %s", rep)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.CorruptPages == 0 {
		t.Errorf("no recovery healed a torn page (%d torn); the sweep does not exercise the repair", rep.TornPages)
	}
}

// TestCrashloopFull is the nightly-depth sweep: multiple seeds, exhaustive
// stride, all fault modes. Gated behind BLINKTREE_CRASHLOOP because it
// replays the workload a few thousand times.
func TestCrashloopFull(t *testing.T) {
	if os.Getenv("BLINKTREE_CRASHLOOP") == "" {
		t.Skip("set BLINKTREE_CRASHLOOP=1 to run the full crash-point sweep")
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, torn := range []bool{false, true} {
			// Alternate seeding mode so the full sweep also covers the
			// chunked bulk-load path under every fault model.
			bulk := seed%2 == 0
			name := fmt.Sprintf("seed=%d/torn=%v/bulk=%v", seed, torn, bulk)
			t.Run(name, func(t *testing.T) {
				rep, err := Run(Config{
					Seed:           seed,
					Steps:          510,
					TornPageWrites: torn,
					TornWALTail:    torn,
					BulkLoad:       bulk,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s: %s", name, rep)
				for _, v := range rep.Violations {
					t.Errorf("violation: %s", v)
				}
			})
		}
	}
}

// recoveryFaults are the fault models the second-order sweeps cut recovery
// under: a clean power cut, a power cut that tears pages and the log tail,
// and a process death.
var recoveryFaults = []struct {
	name string
	cfg  Config
}{
	{"powercut", Config{}},
	{"torn", Config{TornPageWrites: true, TornWALTail: true}},
	{"death", Config{ProcessDeath: true}},
}

// runNestedSweep runs RunNested on cfg under each fault model and fails on
// any violation, or when no cut landed inside a recovery.
func runNestedSweep(t *testing.T, cfg Config) {
	for _, f := range recoveryFaults {
		c := f.cfg
		c.Seed, c.Steps, c.Stride = cfg.Seed, cfg.Steps, cfg.Stride
		t.Run(f.name, func(t *testing.T) {
			rep, err := RunNested(c)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed=%d/%s: %s", c.Seed, f.name, rep)
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			if rep.RecoveryCuts == 0 {
				t.Errorf("no cut landed inside a recovery")
			}
		})
	}
}

// TestCrashInsideRecoverySmoke is the tier-1 second-order sweep: every third
// first crash point, then a cut at each persistence operation of the
// recovery after it — redo's eviction write-backs (the 8-frame pool is
// smaller than a redo window) and deallocations, undo's log appends and
// forces — then a reboot and a second recovery checked against the same
// shadow.
func TestCrashInsideRecoverySmoke(t *testing.T) {
	runNestedSweep(t, Config{Seed: 11, Stride: 3})
}

// TestCrashInsideRecoveryFull is the second-order sweep at full depth: four
// seeds of the longer workload, every first crash point, each fault model.
// Gated behind BLINKTREE_CRASHLOOP like TestCrashloopFull.
func TestCrashInsideRecoveryFull(t *testing.T) {
	if os.Getenv("BLINKTREE_CRASHLOOP") == "" {
		t.Skip("set BLINKTREE_CRASHLOOP=1 to run the full second-order sweep")
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runNestedSweep(t, Config{Seed: seed, Steps: 510})
		})
	}
}

// consolidationFixture builds a worker-less tree on a sim disk, grows it to
// at least two leaves, then deletes the right leaf's keys so that a
// DrainTodo will run the paper's §4 node-consolidation SMO (left sibling
// absorbs the victim, parent's D_D increments, victim is deallocated).
// It returns the disk, the tree, and the surviving key set.
func consolidationFixture(t *testing.T, crashAt int64) (*storage.SimDisk, *core.Tree, map[string]string) {
	t.Helper()
	disk := storage.NewSimDisk(512, storage.SimConfig{Seed: 99, CrashAt: crashAt})
	tree, err := core.New(core.Options{
		PageSize:  512,
		CacheSize: 8,
		MinFill:   0.35,
		Workers:   core.WorkersNone,
		Store:     disk.Store(),
		LogDevice: disk.WAL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	put := func(k, v string) {
		if err := tree.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		want[k] = v
	}
	for i := 0; i < 24; i++ {
		put(fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%04d-%032d", i, i))
	}
	tree.DrainTodo() // complete the splits
	if tree.Height() == 0 {
		t.Fatalf("fixture never split: height 0")
	}
	// Empty out the upper half of the key space: the rightmost leaves fall
	// under MinFill and are enqueued for consolidation.
	for i := 12; i < 24; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := tree.Delete([]byte(k)); err != nil {
			t.Fatalf("delete %s: %v", k, err)
		}
		delete(want, k)
	}
	if err := tree.FlushLog(); err != nil {
		t.Fatal(err)
	}
	return disk, tree, want
}

// TestCrashMidConsolidationDD enumerates every persistence operation of the
// consolidation drain itself and verifies, for each crash point, that
// recovery neither resurrects the deleted (absorbed) leaf nor drops the
// keys the left sibling absorbed — the D_D path of the paper's §4.
func TestCrashMidConsolidationDD(t *testing.T) {
	// Counting run: how many ops does the fixture + drain cost, and where
	// does the drain start?
	disk, tree, _ := consolidationFixture(t, 0)
	preDrain := disk.Ops()
	tree.DrainTodo()
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	total := disk.Ops()
	if total <= preDrain {
		t.Fatalf("drain performed no persistence operations (%d..%d); consolidation not exercised", preDrain, total)
	}
	stats := tree.Stats()
	if stats.LeafConsolidated == 0 {
		t.Fatalf("fixture performed no consolidations")
	}

	for k := preDrain + 1; k <= total; k++ {
		disk, tree, want := consolidationFixture(t, k)
		err := survivePowerCut(disk, func() error {
			tree.DrainTodo()
			return tree.Close()
		})
		if err != nil && !disk.Crashed() {
			t.Fatalf("crash point %d: close: %v", k, err)
		}
		if !disk.Crashed() {
			t.Fatalf("crash point %d never fired", k)
		}
		tree.Abandon()
		disk.Reboot()

		rec, err := core.New(core.Options{
			PageSize:  512,
			CacheSize: 8,
			MinFill:   0.35,
			Workers:   core.WorkersNone,
			Store:     disk.Store(),
			LogDevice: disk.WAL(),
		})
		if err != nil {
			t.Fatalf("crash point %d: recovery: %v", k, err)
		}
		rec.DrainTodo()
		if _, err := rec.VerifyDeep(); err != nil {
			t.Fatalf("crash point %d: verify-deep: %v", k, err)
		}
		got, err := rec.Records()
		if err != nil {
			t.Fatalf("crash point %d: records: %v", k, err)
		}
		// Everything up to the FlushLog is acknowledged: the drain only
		// moves structure, never logical content, so the recovered key set
		// must equal the fixture's exactly at every crash point.
		if len(got) != len(want) {
			t.Fatalf("crash point %d: recovered %d keys, want %d", k, len(got), len(want))
		}
		for key, val := range want {
			if string(got[key]) != val {
				t.Fatalf("crash point %d: key %s: got %q, want %q (absorbed key dropped or stale)", k, key, got[key], val)
			}
		}
		for key := range got {
			if _, ok := want[key]; !ok {
				t.Fatalf("crash point %d: resurrected key %s from the deleted leaf", k, key)
			}
		}
		rec.Abandon()
	}
}
