package sim

import (
	"fmt"
	"os"
	"testing"

	"blinktree/internal/wal"
)

// allModes is every durability mode the commit pipeline supports, in
// strictness order.
var allModes = []wal.DurabilityMode{wal.DurSync, wal.DurPeriodic, wal.DurAsync}

// TestDurabilityModesSmoke is the tier-1 bounded check that the crash-point
// enumerator verifies each mode's stated contract: sync loses nothing
// acknowledged; periodic and async lose at most the commits appended since
// the last explicit force, and only as a suffix. A strided sweep keeps the
// three modes inside the tier-1 time budget.
func TestDurabilityModesSmoke(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			rep, err := Run(Config{Seed: 7, Stride: 4, Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("contract: %s", rep.Contract)
			t.Logf("%s: %s", mode, rep)
			if rep.CrashPoints < 40 {
				t.Fatalf("sweep too small: %d crash points", rep.CrashPoints)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

// TestDurabilityAckHorizon pins the mode-awareness of the shadow model
// itself: under an ack-after-force mode a successful transaction commit
// advances the acknowledged horizon, under the deferred modes it must not —
// otherwise the matrix would demand durability the mode never promised (or
// silently verify a weaker contract than sync claims). The deprecated
// "group" spelling must keep the strict contract.
func TestDurabilityAckHorizon(t *testing.T) {
	for _, mode := range allModes {
		if got, want := mode.AckAfterForce(), mode == wal.DurSync; got != want {
			t.Errorf("%s: AckAfterForce = %v, want %v", mode, got, want)
		}
	}
	if mode, err := wal.ParseDurabilityMode("group"); err != nil || !mode.AckAfterForce() {
		t.Errorf("ParseDurabilityMode(group) = %v, %v; want an ack-after-force mode", mode, err)
	}
}

// TestProcessDeathSmoke kills the process, not the machine, at every other
// persistence operation, in each mode: every frame written survives, synced
// or not, every page written survives untorn, and the log's unwritten tail
// is lost. sync must lose no acknowledged commit; periodic and async at most
// the records appended since the last force — the tail — and only as a
// suffix.
func TestProcessDeathSmoke(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			rep, err := Run(Config{Seed: 13, Stride: 2, Durability: mode, ProcessDeath: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %s", mode, rep)
			if rep.CrashPoints < 40 {
				t.Fatalf("sweep too small: %d crash points", rep.CrashPoints)
			}
			if rep.DroppedFrames+rep.TornPages+rep.TornTails != 0 {
				t.Fatalf("a process death lost or tore written data: %s", rep)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

// TestDurabilityContractMatrix is the CI durability-matrix job: every mode
// crossed with the clean, torn and process-death fault models, exhaustive
// crash-point stride. Gated behind BLINKTREE_DURABILITY_MATRIX because it
// replays the workload a few thousand times.
func TestDurabilityContractMatrix(t *testing.T) {
	if os.Getenv("BLINKTREE_DURABILITY_MATRIX") == "" {
		t.Skip("set BLINKTREE_DURABILITY_MATRIX=1 to run the full durability-contract matrix")
	}
	for _, mode := range allModes {
		for _, fault := range []string{"clean", "torn", "death"} {
			name := fmt.Sprintf("mode=%s/fault=%s", mode, fault)
			t.Run(name, func(t *testing.T) {
				rep, err := Run(Config{
					Seed:           11,
					Steps:          470,
					Durability:     mode,
					TornPageWrites: fault == "torn",
					TornWALTail:    fault == "torn",
					ProcessDeath:   fault == "death",
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("contract: %s", rep.Contract)
				t.Logf("%s: %s", name, rep)
				for _, v := range rep.Violations {
					t.Errorf("violation: %s", v)
				}
			})
		}
	}
}
