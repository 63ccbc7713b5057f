package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"blinktree/internal/buildinfo"
	"blinktree/internal/core"
)

// ScaleConfig parameterizes the scale-tier sweep (experiment E15): a bulk
// load of each tier's keys, followed by point and range probes against the
// loaded tree.
type ScaleConfig struct {
	// Tiers are the key counts to load (default 10M and 20M).
	Tiers []int
	// Fill is the bulk-load fill factor (default 0.85).
	Fill float64
	// PageSize is the page size for every cell (default 4096 — the scale
	// tier models a realistic disk page, unlike the 1KB experiment pages).
	PageSize int
	// Probes is the number of point probes (Gets, then Puts) per cell
	// (default 2000). Range-scan probes are Probes/100 scans of 5000
	// records each.
	Probes int
	// Seed drives the probe key choice (default 1).
	Seed int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Tiers) == 0 {
		c.Tiers = []int{10_000_000, 20_000_000}
	}
	if c.Fill == 0 {
		c.Fill = 0.85
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.Probes == 0 {
		c.Probes = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScaleResult is one tier of the sweep.
type ScaleResult struct {
	// Keys is the tier size.
	Keys int `json:"keys"`
	// LoadNS is the wall time of the bulk load; RowsPerSec the headline
	// load throughput.
	LoadNS     int64   `json:"load_ns"`
	RowsPerSec float64 `json:"rows_per_sec"`
	// PagesBuilt and Chunks snapshot the loader's counters.
	PagesBuilt uint64 `json:"pages_built"`
	Chunks     uint64 `json:"chunks"`
	// Height and IndexFanout describe the built tree: root level and the
	// average child count of index nodes (compact separators push this up).
	Height      int     `json:"height"`
	IndexFanout float64 `json:"index_fanout"`
	// VerifyClean records whether the deep audit passed on the built tree.
	VerifyClean bool `json:"verify_clean"`
	// GetP50NS/GetP99NS and PutP50NS/PutP99NS are point-probe latencies
	// after the load; ScanNSPerKey is the amortized per-record cost of
	// range scans.
	GetP50NS     int64   `json:"get_p50_ns"`
	GetP99NS     int64   `json:"get_p99_ns"`
	PutP50NS     int64   `json:"put_p50_ns"`
	PutP99NS     int64   `json:"put_p99_ns"`
	ScanNSPerKey float64 `json:"scan_ns_per_key"`
}

// ScaleReport is the persisted scale-tier sweep, serialized to
// BENCH_scale.json at the repo root by the CI perf-trajectory job.
type ScaleReport struct {
	// Cores, GOMAXPROCS and GitRev say where the sweep was measured: the
	// host's CPU count, the scheduler's (which sets the bulk load's builder
	// count), and the VCS revision of the binary ("" when not stamped).
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitRev     string `json:"git_rev"`

	// PageSize and Fill restate the per-cell configuration.
	PageSize int     `json:"page_size"`
	Fill     float64 `json:"fill"`
	// Results holds every measured cell.
	Results []ScaleResult `json:"results"`
}

// WriteJSON serializes the report (indented, trailing newline) for
// BENCH_scale.json.
func (r *ScaleReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadScaleReport parses a report previously written by WriteJSON.
func ReadScaleReport(rd io.Reader) (*ScaleReport, error) {
	var r ScaleReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// scaleKey renders the i-th key of a tier: fixed width keeps every level's
// separators the same length, so fanout differences measure the compact
// separator logic rather than key-length noise.
func scaleKey(i int) []byte { return []byte(fmt.Sprintf("k%012d", i)) }

func scaleVal(i int) []byte { return []byte(fmt.Sprintf("v%07d", i%10_000_000)) }

// scaleFeeder streams the tier without materializing it.
func scaleFeeder(n int) func() ([]byte, []byte, bool) {
	i := 0
	return func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		k, v := scaleKey(i), scaleVal(i)
		i++
		return k, v, true
	}
}

// RunScale measures every tier of the sweep.
func RunScale(cfg ScaleConfig) (*ScaleReport, error) {
	cfg = cfg.withDefaults()
	rep := &ScaleReport{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitRev:     buildinfo.Revision(),
		PageSize:   cfg.PageSize,
		Fill:       cfg.Fill,
	}
	for _, tier := range cfg.Tiers {
		res, err := runScaleCell(cfg, tier)
		if err != nil {
			return nil, fmt.Errorf("bench: scale %d: %w", tier, err)
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// runScaleCell loads one tier into a tree with the default Workers, so the
// load runs one builder per GOMAXPROCS, and probes it.
func runScaleCell(cfg ScaleConfig, tier int) (ScaleResult, error) {
	tr, err := core.New(core.Options{
		PageSize:  cfg.PageSize,
		CacheSize: 1 << 15,
	})
	if err != nil {
		return ScaleResult{}, err
	}
	defer tr.Close()

	start := time.Now()
	if err := tr.BulkLoad(scaleFeeder(tier), cfg.Fill); err != nil {
		return ScaleResult{}, err
	}
	loadNS := time.Since(start).Nanoseconds()

	res := ScaleResult{
		Keys:       tier,
		LoadNS:     loadNS,
		RowsPerSec: float64(tier) / (float64(loadNS) / 1e9),
		PagesBuilt: tr.Stats().BulkLoadPages,
		Chunks:     tr.Stats().BulkLoadChunks,
	}

	deep, err := tr.VerifyDeep()
	if err != nil {
		return res, fmt.Errorf("deep verify: %w", err)
	}
	res.VerifyClean = true
	res.Height = deep.Height
	var below, idx int
	for lvl := 1; lvl < len(deep.NodesPerLevel); lvl++ {
		below += deep.NodesPerLevel[lvl-1]
		idx += deep.NodesPerLevel[lvl]
	}
	if idx > 0 {
		res.IndexFanout = float64(below) / float64(idx)
	}

	if err := scaleProbes(tr, cfg, tier, &res); err != nil {
		return res, err
	}
	return res, nil
}

// scaleProbes measures post-load point and range latency: Gets on loaded
// keys, Puts of fresh keys landing between loaded ones, and range scans.
func scaleProbes(tr *core.Tree, cfg ScaleConfig, tier int, res *ScaleResult) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	lat := make([]int64, 0, cfg.Probes)
	for i := 0; i < cfg.Probes; i++ {
		k := scaleKey(rng.Intn(tier))
		t0 := time.Now()
		if _, err := tr.Get(k); err != nil {
			return fmt.Errorf("probe get %s: %w", k, err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	res.GetP50NS, res.GetP99NS = quantiles(lat)

	lat = lat[:0]
	for i := 0; i < cfg.Probes; i++ {
		// "x" suffix sorts the probe key just after a loaded key: a random
		// in-leaf insert, not a right-edge append.
		k := append(scaleKey(rng.Intn(tier)), 'x')
		t0 := time.Now()
		if err := tr.Put(k, []byte("probe")); err != nil {
			return fmt.Errorf("probe put %s: %w", k, err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	res.PutP50NS, res.PutP99NS = quantiles(lat)

	scans := cfg.Probes / 100
	if scans == 0 {
		scans = 1
	}
	const scanLen = 5000
	var scanned int
	t0 := time.Now()
	for i := 0; i < scans; i++ {
		start := scaleKey(rng.Intn(tier))
		n := 0
		err := tr.Scan(start, nil, func(k, v []byte) bool {
			n++
			return n < scanLen
		})
		if err != nil {
			return fmt.Errorf("probe scan from %s: %w", start, err)
		}
		scanned += n
	}
	if scanned > 0 {
		res.ScanNSPerKey = float64(time.Since(t0).Nanoseconds()) / float64(scanned)
	}
	return nil
}

// quantiles returns the p50 and p99 of lat (which it sorts in place).
func quantiles(lat []int64) (p50, p99 int64) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], lat[len(lat)*99/100]
}
