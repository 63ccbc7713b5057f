package bench

import (
	"bytes"
	"testing"
	"time"

	"blinktree/internal/wal"
)

// TestCommitBenchSmoke runs a tiny commit-path sweep across the three modes
// and checks the report's shape: where it was measured, every cell present,
// commits counted, forces timed, the ack-after-force mode counting every
// commit, deferred modes acknowledging immediately.
func TestCommitBenchSmoke(t *testing.T) {
	cfg := CommitConfig{
		Modes:        []wal.DurabilityMode{wal.DurSync, wal.DurPeriodic, wal.DurAsync},
		Writers:      []int{1, 4},
		OpsPerWriter: 25,
		SyncDelay:    20 * time.Microsecond,
	}
	rep, err := RunCommit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cores < 1 {
		t.Errorf("report names %d cores", rep.Cores)
	}
	if len(rep.Results) != len(cfg.Modes)*len(cfg.Writers) {
		t.Fatalf("results = %d cells, want %d", len(rep.Results), len(cfg.Modes)*len(cfg.Writers))
	}
	for _, mode := range cfg.Modes {
		for _, w := range cfg.Writers {
			res, ok := rep.Lookup(mode.String(), w)
			if !ok {
				t.Fatalf("missing cell %s/%d", mode, w)
			}
			if res.Commits != w*cfg.OpsPerWriter {
				t.Errorf("%s/%d: commits = %d, want %d", mode, w, res.Commits, w*cfg.OpsPerWriter)
			}
			if res.CommitsPerSec <= 0 {
				t.Errorf("%s/%d: non-positive throughput", mode, w)
			}
			if res.DeviceForces == 0 || res.MeanForceNS < cfg.SyncDelay.Nanoseconds() {
				t.Errorf("%s/%d: %d forces of mean %dns on a device that sleeps %s", mode, w, res.DeviceForces, res.MeanForceNS, cfg.SyncDelay)
			}
			if mode.AckAfterForce() && res.Group.Commits != uint64(res.Commits) {
				t.Errorf("%s/%d: commits acknowledged after a force = %d, want %d", mode, w, res.Group.Commits, res.Commits)
			}
			if !mode.AckAfterForce() && res.Group.ImmediateAcks != uint64(res.Commits) {
				t.Errorf("%s/%d: immediate acks = %d, want %d", mode, w, res.Group.ImmediateAcks, res.Commits)
			}
		}
	}
}

// TestCommitReportRoundTrip pins the BENCH_commit.json wire format: a
// report survives WriteJSON/ReadCommitReport, and the coalescing gate reads
// the same numbers back.
func TestCommitReportRoundTrip(t *testing.T) {
	rep := &CommitReport{
		Cores:        2,
		GitRev:       "abc1234",
		OpsPerWriter: 10,
		SyncDelayNS:  1000,
		Results: []CommitResult{
			{Mode: "sync", Writers: 1, Commits: 10, ElapsedNS: 1e6, CommitsPerSec: 100, DeviceForces: 10},
			{Mode: "sync", Writers: 16, Commits: 160, ElapsedNS: 1e6, CommitsPerSec: 500, DeviceForces: 40},
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCommitReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cores != 2 || back.GitRev != "abc1234" {
		t.Fatalf("header = %d cores, rev %q", back.Cores, back.GitRev)
	}
	desc, err := back.GateCoalescing(4)
	if err != nil {
		t.Fatalf("gate should pass (5x at 4 commits/force): %v", err)
	}
	if desc == "" {
		t.Fatal("gate returned no description")
	}
	if _, err := back.GateCoalescing(6); err == nil {
		t.Fatal("gate should fail at 5x < 6x")
	}
	back.Results[1].DeviceForces = 160
	if _, err := back.GateCoalescing(4); err == nil {
		t.Fatal("gate should fail at one commit per force")
	}
}
