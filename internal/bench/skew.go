package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"blinktree/internal/buildinfo"
	"blinktree/internal/core"
	"blinktree/internal/wal"
)

// SkewConfig parameterizes one skew scenario matrix sweep: every configured
// key distribution crossed with every goroutine count, each measured with
// the right-edge append fast path on and off.
type SkewConfig struct {
	// Dists are the key distributions to sweep (default uniform, zipf,
	// hotspot, moving-hotspot, seq-append).
	Dists []Dist
	// Goroutines are the concurrency levels (default 1, 4, 8, 16).
	Goroutines []int
	// KeySpace, Preload and Ops size each cell (defaults 20_000 keys,
	// 10_000 preloaded, 20_000 measured operations).
	KeySpace int
	Preload  int
	Ops      int
	// ZipfS is the Zipf skew parameter (default 1.2).
	ZipfS float64
}

func (c SkewConfig) withDefaults() SkewConfig {
	if len(c.Dists) == 0 {
		c.Dists = []Dist{Uniform, Zipf, Hotspot, MovingHotspot, SeqAppend}
	}
	if len(c.Goroutines) == 0 {
		c.Goroutines = []int{1, 4, 8, 16}
	}
	if c.KeySpace == 0 {
		c.KeySpace = 20_000
	}
	if c.Preload == 0 {
		c.Preload = 10_000
	}
	if c.Ops == 0 {
		c.Ops = 20_000
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	return c
}

// SkewResult is one (distribution, goroutines, append fast path) cell.
type SkewResult struct {
	// Dist is the distribution's flag name (uniform, zipf, hotspot,
	// moving-hotspot, seq-append).
	Dist string `json:"dist"`
	// Goroutines is the worker count.
	Goroutines int `json:"goroutines"`
	// AppendFastPath reports whether the right-edge append fast path was
	// enabled for this cell.
	AppendFastPath bool `json:"append_fast_path"`
	// Ops is the measured operation count.
	Ops int `json:"ops"`
	// ElapsedNS is the measured wall time in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
	// OpsPerSec is the headline throughput.
	OpsPerSec float64 `json:"ops_per_sec"`
	// AppendFastHits counts inserts served by the right-edge fast path.
	AppendFastHits uint64 `json:"append_fast_hits"`
	// LatchWaits counts blocking latch acquisitions during the cell.
	LatchWaits uint64 `json:"latch_waits"`
}

// SkewReport is the persisted skew scenario matrix: the sweep configuration
// plus every measured cell, serialized to BENCH_skew.json at the repo root
// by the CI bench-smoke job.
type SkewReport struct {
	// Cores, GOMAXPROCS and GitRev say where the matrix was measured: the
	// host's CPU count, the scheduler's, and the VCS revision of the binary
	// ("" when not stamped, e.g. under go run).
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitRev     string `json:"git_rev"`

	// KeySpace, Preload and Ops restate the per-cell sizing.
	KeySpace int `json:"key_space"`
	Preload  int `json:"preload"`
	Ops      int `json:"ops"`
	// ZipfS restates the Zipf skew the zipf cells were measured under.
	ZipfS float64 `json:"zipf_s"`

	// Results holds every measured cell.
	Results []SkewResult `json:"results"`
}

// Lookup returns the cell for (dist, goroutines, append fast path), if
// present.
func (r *SkewReport) Lookup(dist string, goroutines int, appendFast bool) (SkewResult, bool) {
	for _, res := range r.Results {
		if res.Dist == dist && res.Goroutines == goroutines && res.AppendFastPath == appendFast {
			return res, true
		}
	}
	return SkewResult{}, false
}

// MaxGoroutines returns the largest goroutine count in the report.
func (r *SkewReport) MaxGoroutines() int {
	max := 0
	for _, res := range r.Results {
		if res.Goroutines > max {
			max = res.Goroutines
		}
	}
	return max
}

// GateSkewVsUniform checks the skew-tolerance invariant: at the highest
// goroutine count with the append fast path on, Zipf throughput must be at
// least frac times uniform throughput (skew must not collapse the tree).
// Returns a description of the comparison and an error when the gate fails.
func (r *SkewReport) GateSkewVsUniform(frac float64) (string, error) {
	g := r.MaxGoroutines()
	uni, ok1 := r.Lookup("uniform", g, true)
	zipf, ok2 := r.Lookup("zipf", g, true)
	if !ok1 || !ok2 {
		return "", fmt.Errorf("bench: report lacks uniform/zipf cells at %d goroutines", g)
	}
	desc := fmt.Sprintf("%d goroutines: zipf %.0f ops/s vs uniform %.0f ops/s (%.2fx, gate %.2fx)",
		g, zipf.OpsPerSec, uni.OpsPerSec, zipf.OpsPerSec/uni.OpsPerSec, frac)
	if zipf.OpsPerSec < uni.OpsPerSec*frac {
		return desc, fmt.Errorf("bench: skew-vs-uniform gate failed: %s", desc)
	}
	return desc, nil
}

// WriteJSON serializes the report (indented, trailing newline) for
// BENCH_skew.json.
func (r *SkewReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadSkewReport parses a report previously written by WriteJSON.
func ReadSkewReport(rd io.Reader) (*SkewReport, error) {
	var r SkewReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// skewSpec builds the workload spec for one distribution cell.
func (c SkewConfig) skewSpec(d Dist) Spec {
	return Spec{
		KeySpace: c.KeySpace,
		Preload:  c.Preload,
		Ops:      c.Ops,
		Mix:      Mix{Insert: 50, Search: 30, Delete: 20},
		Dist:     d,
		ZipfS:    c.ZipfS,
	}
}

// skewOptions builds the tree configuration for one cell. The matrix runs
// against a logged tree (MemDevice) so WAL appends are part of what is
// measured.
func skewOptions(appendFast bool) core.Options {
	mode := core.FeatureOff
	if appendFast {
		mode = core.FeatureOn
	}
	return core.Options{
		PageSize:       expPageSize,
		MinFill:        0.35,
		Workers:        2,
		LogDevice:      wal.NewMemDevice(),
		AppendFastPath: mode,
	}
}

// RunSkew measures the full skew scenario matrix: every configured
// distribution at every goroutine count, with the append fast path on and
// off.
func RunSkew(cfg SkewConfig) (*SkewReport, error) {
	cfg = cfg.withDefaults()
	rep := &SkewReport{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitRev:     buildinfo.Revision(),

		KeySpace: cfg.KeySpace,
		Preload:  cfg.Preload,
		Ops:      cfg.Ops,
		ZipfS:    cfg.ZipfS,
	}
	for _, d := range cfg.Dists {
		for _, g := range cfg.Goroutines {
			for _, appendFast := range []bool{true, false} {
				res, err := runSkewCell(cfg, d, g, appendFast)
				if err != nil {
					return nil, fmt.Errorf("bench: skew %s/%d/appendfast=%v: %w", d, g, appendFast, err)
				}
				rep.Results = append(rep.Results, res)
			}
		}
	}
	return rep, nil
}

func runSkewCell(cfg SkewConfig, d Dist, goroutines int, appendFast bool) (SkewResult, error) {
	res, err := Run(Config{Name: d.String(), Opts: skewOptions(appendFast)}, cfg.skewSpec(d), goroutines)
	if err != nil {
		return SkewResult{}, err
	}
	return SkewResult{
		Dist:           d.String(),
		Goroutines:     goroutines,
		AppendFastPath: appendFast,
		Ops:            res.Ops,
		ElapsedNS:      res.Elapsed.Nanoseconds(),
		OpsPerSec:      res.Throughput,
		AppendFastHits: res.Stats.AppendFastHits,
		LatchWaits:     res.Latch.Waits,
	}, nil
}
