package bench

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"blinktree/internal/core"
	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/wal"
)

// Config names one algorithm configuration under test.
type Config struct {
	Name string
	Opts core.Options
}

// Comparators returns the paper's method and the three comparator
// configurations, all with the given page size and a MemDevice log when
// logged is true.
func Comparators(pageSize int, logged bool) []Config {
	mk := func(name string, f func(*core.Options)) Config {
		o := core.Options{
			PageSize: pageSize, MinFill: 0.35, Workers: 2,
			Observability: &obs.Config{Metrics: true},
		}
		if logged {
			o.LogDevice = wal.NewMemDevice()
		}
		if f != nil {
			f(&o)
		}
		return Config{Name: name, Opts: o}
	}
	return []Config{
		mk("delete-state", nil),
		mk("drain", func(o *core.Options) { o.DeletePolicy = core.Drain }),
		mk("serial-smo", func(o *core.Options) { o.SerializeSMO = true }),
		mk("no-delete", func(o *core.Options) { o.NoDeleteSupport = true }),
	}
}

// Result is one measured run.
type Result struct {
	Name       string
	Goroutines int
	Ops        int
	Elapsed    time.Duration
	Throughput float64 // ops per second

	Stats core.Stats
	// Latch is this tree's latch activity (per-tree recorder; other trees
	// in the process do not pollute it).
	Latch latch.Stats
	// Obs is the tree's histogram snapshot; nil when the config disables
	// observability.
	Obs *obs.Snapshot
	// P50/P99/P999 are measured-phase operation latency quantiles merged
	// across all operation classes (preload excluded); zero when
	// observability is disabled.
	P50, P99, P999 time.Duration
	LivePages      int
	// Utilization is total leaf payload bytes / (leaf pages * page size).
	Utilization float64
	LogAppends  uint64
	LogForces   uint64
}

// Run preloads a tree with spec.Preload records, runs spec.Ops operations
// across the given goroutines, and measures.
func Run(cfg Config, spec Spec, goroutines int) (Result, error) {
	spec = spec.withDefaults()
	tr, err := core.New(cfg.Opts)
	if err != nil {
		return Result{}, err
	}
	defer tr.Close()
	if err := Preload(tr, spec); err != nil {
		return Result{}, err
	}
	// Snapshot the histograms after preload so the reported percentiles
	// cover only the measured phase.
	var pre *obs.Snapshot
	if reg := tr.Registry(); reg != nil {
		pre = reg.Snapshot()
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	perG := spec.Ops / goroutines
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		// Each worker gets its own Gen (a Gen is not goroutine-safe) with a
		// seed derived from the spec's base, so runs stay reproducible while
		// workers draw independent streams. SeqAppend workers interleave by
		// stride so the merged key sequence is strictly increasing overall.
		wspec := spec
		if spec.Dist == SeqAppend {
			wspec.SeqOffset = spec.SeqOffset + g*spec.SeqStride
			wspec.SeqStride = spec.SeqStride * goroutines
		}
		wg.Add(1)
		go func(wspec Spec, seed int64) {
			defer wg.Done()
			errCh <- Worker(tr, wspec, seed, perG)
		}(wspec, spec.Seed+int64(g)+1)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return Result{}, err
		}
	}
	tr.DrainTodo()

	res := Result{
		Name:       cfg.Name,
		Goroutines: goroutines,
		Ops:        perG * goroutines,
		Elapsed:    elapsed,
		Throughput: float64(perG*goroutines) / elapsed.Seconds(),
		Stats:      tr.Stats(),
		Latch:      tr.LatchStats(),
		LivePages:  tr.StoreStats().LivePages,
	}
	if reg := tr.Registry(); reg != nil {
		res.Obs = reg.Snapshot()
		var merged obs.HistogramSnapshot
		for i := range res.Obs.Ops {
			h := res.Obs.Ops[i]
			if pre != nil {
				h = h.Delta(pre.Ops[i])
			}
			merged = merged.Merge(h)
		}
		res.P50 = merged.Quantile(0.50)
		res.P99 = merged.Quantile(0.99)
		res.P999 = merged.Quantile(0.999)
	}
	res.Utilization, err = LeafUtilization(tr, cfg.Opts.PageSize)
	if err != nil {
		return Result{}, err
	}
	if cfg.Opts.LogDevice != nil {
		res.LogAppends, res.LogForces = tr.LogStats()
	}
	return res, nil
}

// Preload inserts spec.Preload sequential records.
func Preload(tr *core.Tree, spec Spec) error {
	g := NewGen(spec, 0)
	for i := 0; i < spec.Preload; i++ {
		if err := tr.Put(Key(i%spec.KeySpace), g.Value()); err != nil {
			return fmt.Errorf("preload %d: %w", i, err)
		}
	}
	tr.DrainTodo()
	return nil
}

// Worker runs n operations from a fresh generator against tr.
func Worker(tr *core.Tree, spec Spec, seed int64, n int) error {
	g := NewGen(spec, seed)
	for i := 0; i < n; i++ {
		op := g.Next()
		k := Key(op.K)
		var err error
		switch op.Kind {
		case OpInsert:
			err = tr.Put(k, g.Value())
		case OpSearch:
			_, err = tr.Get(k)
			if errors.Is(err, core.ErrKeyNotFound) {
				err = nil
			}
		case OpDelete:
			err = tr.Delete(k)
			if errors.Is(err, core.ErrKeyNotFound) {
				err = nil
			}
		case OpScan:
			remaining := g.ScanLen()
			err = tr.Scan(k, nil, func(_, _ []byte) bool {
				remaining--
				return remaining > 0
			})
		case OpModify:
			err = tr.Delete(k)
			if errors.Is(err, core.ErrKeyNotFound) {
				err = nil
			}
			if err == nil {
				err = tr.Put(k, g.Value())
			}
		}
		if err != nil {
			return fmt.Errorf("op %d (%d): %w", i, op.Kind, err)
		}
	}
	return nil
}

// LeafUtilization computes average leaf fill: payload bytes over capacity.
func LeafUtilization(tr *core.Tree, pageSize int) (float64, error) {
	if pageSize == 0 {
		pageSize = 4096
	}
	ids, err := tr.LevelNodes(0)
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, nil
	}
	total := 0
	for _, id := range ids {
		info, err := tr.NodeSnapshot(id)
		if err != nil {
			return 0, err
		}
		total += info.Size
	}
	return float64(total) / float64(len(ids)*pageSize), nil
}

// verifyTreeContents is a test helper: compares the tree against expected.
func verifyTreeContents(tr *core.Tree, want map[string][]byte) error {
	got, err := tr.Records()
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("record count %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			return fmt.Errorf("mismatch at %q", k)
		}
	}
	return nil
}
