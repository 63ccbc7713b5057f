package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/buildinfo"
	"blinktree/internal/core"
	"blinktree/internal/wal"
)

// slowDevice wraps a MemDevice with a Sync that sleeps, modeling the device
// force a real fsync pays. The commit-path benchmark uses it instead of a
// file so the sweep measures how commits share forces, not the host
// filesystem's mood — which is what lets CI gate on the result. What a
// time.Sleep(delay) really takes depends on the host and on how busy the
// scheduler is (a 100µs sleep is about 1ms with one writer here, 0.25ms
// with sixteen), so the device times its forces and every cell reports the
// mean next to the configured delay.
type slowDevice struct {
	*wal.MemDevice
	delay  time.Duration
	syncNS atomic.Int64
}

func (d *slowDevice) Sync() error {
	t0 := time.Now()
	time.Sleep(d.delay)
	err := d.MemDevice.Sync()
	d.syncNS.Add(int64(time.Since(t0)))
	return err
}

// CommitConfig parameterizes one commit-path sweep.
type CommitConfig struct {
	// Modes are the durability modes to measure (default sync).
	Modes []wal.DurabilityMode
	// Writers are the concurrent committer counts (default 1, 2, 4, 16).
	Writers []int
	// OpsPerWriter is the number of single-put transactions each writer
	// commits (default 200).
	OpsPerWriter int
	// SyncDelay is the simulated device force latency (default 100µs).
	SyncDelay time.Duration
}

func (c CommitConfig) withDefaults() CommitConfig {
	if len(c.Modes) == 0 {
		c.Modes = []wal.DurabilityMode{wal.DurSync}
	}
	if len(c.Writers) == 0 {
		c.Writers = []int{1, 2, 4, 16}
	}
	if c.OpsPerWriter == 0 {
		c.OpsPerWriter = 200
	}
	if c.SyncDelay == 0 {
		c.SyncDelay = 100 * time.Microsecond
	}
	return c
}

// CommitResult is one (mode, writers) cell of the sweep.
type CommitResult struct {
	// Mode is the durability mode's flag name (sync, periodic, async).
	Mode string `json:"mode"`
	// Writers is the concurrent committer count.
	Writers int `json:"writers"`
	// Commits is the total transactions committed.
	Commits int `json:"commits"`
	// ElapsedNS is the measured wall time in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
	// CommitsPerSec is the headline throughput.
	CommitsPerSec float64 `json:"commits_per_sec"`
	// DeviceForces is how many times the simulated device was forced;
	// Commits/DeviceForces is how many commits shared one.
	DeviceForces uint64 `json:"device_forces"`
	// MeanForceNS is the measured mean duration of one device force, to be
	// read against the report's configured SyncDelayNS.
	MeanForceNS int64 `json:"mean_force_ns"`
	// Group is the log's commit-path counter snapshot.
	Group wal.GroupStats `json:"group"`
}

// CommitsPerForce is how many commits shared one device force.
func (r CommitResult) CommitsPerForce() float64 {
	return float64(r.Commits) / float64(max(r.DeviceForces, 1))
}

// CommitReport is the persisted perf trajectory for the commit path: the
// sweep configuration plus every measured cell, serialized to
// BENCH_commit.json at the repo root by the CI perf-trajectory job.
type CommitReport struct {
	// Cores and GitRev say where the sweep was measured: the host's CPU
	// count and the VCS revision of the binary ("" when not stamped, e.g.
	// under go run).
	Cores  int    `json:"cores"`
	GitRev string `json:"git_rev"`

	// OpsPerWriter and SyncDelayNS restate the configuration the numbers
	// were measured under.
	OpsPerWriter int   `json:"ops_per_writer"`
	SyncDelayNS  int64 `json:"sync_delay_ns"`

	Results []CommitResult `json:"results"`
}

// Lookup returns the cell for (mode, writers), if present.
func (r *CommitReport) Lookup(mode string, writers int) (CommitResult, bool) {
	for _, res := range r.Results {
		if res.Mode == mode && res.Writers == writers {
			return res, true
		}
	}
	return CommitResult{}, false
}

// GateCoalescing checks the perf-trajectory invariant on the ack-after-force
// path: at the report's highest writer count commits share forces (at least
// two per force) and throughput is at least ratio times the one-writer
// cell's. Returns a description of the comparison and an error when the
// gate fails.
func (r *CommitReport) GateCoalescing(ratio float64) (string, error) {
	w := 0
	for _, res := range r.Results {
		w = max(w, res.Writers)
	}
	one, ok1 := r.Lookup("sync", 1)
	many, ok2 := r.Lookup("sync", w)
	if !ok1 || !ok2 || w == 1 {
		return "", fmt.Errorf("bench: report lacks sync cells at 1 and >1 writers")
	}
	desc := fmt.Sprintf("%d writers: %.0f commits/s at %.1f commits/force vs %.0f commits/s at 1 writer (%.2fx, gate %.2fx and 2.0 commits/force)",
		w, many.CommitsPerSec, many.CommitsPerForce(), one.CommitsPerSec, many.CommitsPerSec/one.CommitsPerSec, ratio)
	if many.CommitsPerForce() < 2 || many.CommitsPerSec < one.CommitsPerSec*ratio {
		return desc, fmt.Errorf("bench: coalescing gate failed: %s", desc)
	}
	return desc, nil
}

// WriteJSON serializes the report (indented, trailing newline) for
// BENCH_commit.json.
func (r *CommitReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadCommitReport parses a report previously written by WriteJSON.
func ReadCommitReport(rd io.Reader) (*CommitReport, error) {
	var r CommitReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// RunCommit measures the commit path across the configured modes and writer
// counts. Each writer commits OpsPerWriter single-put transactions against
// its own key range (no lock conflicts: the benchmark isolates the
// durability pipeline, not the lock manager).
func RunCommit(cfg CommitConfig) (*CommitReport, error) {
	cfg = cfg.withDefaults()
	rep := &CommitReport{
		Cores:        runtime.NumCPU(),
		GitRev:       buildinfo.Revision(),
		OpsPerWriter: cfg.OpsPerWriter,
		SyncDelayNS:  cfg.SyncDelay.Nanoseconds(),
	}
	for _, mode := range cfg.Modes {
		for _, writers := range cfg.Writers {
			res, err := runCommitCell(cfg, mode, writers)
			if err != nil {
				return nil, fmt.Errorf("bench: commit %s/%d writers: %w", mode, writers, err)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}

func runCommitCell(cfg CommitConfig, mode wal.DurabilityMode, writers int) (CommitResult, error) {
	dev := &slowDevice{MemDevice: wal.NewMemDevice(), delay: cfg.SyncDelay}
	tr, err := core.New(core.Options{
		PageSize:   1024,
		Workers:    core.WorkersNone,
		LogDevice:  dev,
		Durability: mode,
	})
	if err != nil {
		return CommitResult{}, err
	}
	total := writers * cfg.OpsPerWriter

	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.OpsPerWriter; i++ {
				x, err := tr.Begin()
				if err != nil {
					errCh <- err
					return
				}
				key := fmt.Sprintf("w%03d-k%06d", w, i)
				if err := x.Put([]byte(key), []byte("v")); err != nil {
					_ = x.Abort()
					errCh <- err
					return
				}
				if err := x.Commit(); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		if err != nil {
			tr.Abandon()
			return CommitResult{}, err
		}
	}
	group := tr.Snapshot().WALGroup
	if err := tr.Close(); err != nil {
		return CommitResult{}, err
	}
	return CommitResult{
		Mode:          mode.String(),
		Writers:       writers,
		Commits:       total,
		ElapsedNS:     elapsed.Nanoseconds(),
		CommitsPerSec: float64(total) / elapsed.Seconds(),
		DeviceForces:  dev.Syncs(),
		MeanForceNS:   dev.syncNS.Load() / int64(max(dev.Syncs(), 1)),
		Group:         group,
	}, nil
}
