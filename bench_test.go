// Benchmarks regenerating the experiment tables (E1..E10 in DESIGN.md) as
// testing.B targets, plus micro-benchmarks of the primitive operations.
// Each BenchmarkE* corresponds to one experiment; run the full harness with
// cmd/blinkbench for the rendered tables.
package blinktree_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"blinktree"
	"blinktree/internal/bench"
	"blinktree/internal/core"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// mkTree builds a preloaded core tree for benchmarks.
func mkTree(b *testing.B, opts core.Options, preload int) *core.Tree {
	b.Helper()
	tr, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < preload; i++ {
		if err := tr.Put(bench.Key(i), make([]byte, 24)); err != nil {
			b.Fatal(err)
		}
	}
	tr.DrainTodo()
	b.Cleanup(func() { tr.Close() })
	return tr
}

// --- micro-benchmarks -------------------------------------------------

func BenchmarkPut(b *testing.B) {
	tr := mkTree(b, core.Options{PageSize: 4096, Workers: 2}, 0)
	val := make([]byte, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(bench.Key(i), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	tr := mkTree(b, core.Options{PageSize: 4096, Workers: 2}, 100_000)
	var k []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = bench.AppendKey(k[:0], i%100_000)
		if _, err := tr.Get(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelete(b *testing.B) {
	tr := mkTree(b, core.Options{PageSize: 4096, MinFill: 0.35, Workers: 2}, 0)
	val := make([]byte, 24)
	var k []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = bench.AppendKey(k[:0], i)
		tr.Put(k, val)
		if err := tr.Delete(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan100 scans 100 consecutive records from a pseudo-random start:
// cached with the whole tree resident, uncached with the tree 17 times the
// pool (the ratio of the repository benchmark's emb.churn.uncached). Besides
// ns/op it reports ns/record and the buffer-pool fetches one scan makes — a
// cursor that reads a leaf per latch acquisition makes a handful, one that
// re-positions per record makes two per record.
func BenchmarkScan100(b *testing.B) {
	const keys, span = 100_000, 100
	run := func(b *testing.B, cacheDivisor int) {
		opts := core.Options{PageSize: 4096, Workers: 2}
		tr := mkTree(b, opts, keys)
		if cacheDivisor > 1 {
			// The same load again, over a pool a fraction of its page count.
			opts.CacheSize = tr.StoreStats().LivePages / cacheDivisor
			tr = mkTree(b, opts, keys)
		}
		before := tr.PoolStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := (i * 977) % (keys - span)
			cnt := 0
			if err := tr.Scan(bench.Key(start), bench.Key(start+span), func(_, _ []byte) bool {
				cnt++
				return true
			}); err != nil || cnt != span {
				b.Fatalf("scan from %d: %d records, %v", start, cnt, err)
			}
		}
		b.StopTimer()
		after := tr.PoolStats()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*span), "ns/record")
		b.ReportMetric(float64(after.Hits+after.Misses-before.Hits-before.Misses)/float64(b.N), "fetches/scan")
	}
	b.Run("cached", func(b *testing.B) { run(b, 1) })
	b.Run("uncached", func(b *testing.B) { run(b, 17) })
}

func BenchmarkTxnCommit(b *testing.B) {
	tr := mkTree(b, core.Options{PageSize: 4096, Workers: 2, LogDevice: wal.NewMemDevice()}, 0)
	val := make([]byte, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := tr.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := x.Put(bench.Key(i), val); err != nil {
			b.Fatal(err)
		}
		if err := x.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1: mixed throughput, all comparators, parallel -------------------

func BenchmarkE1Mixed(b *testing.B) {
	spec := bench.Spec{
		KeySpace: 50_000,
		Mix:      bench.Mix{Insert: 30, Search: 40, Delete: 25, Scan: 5},
	}
	for _, cfg := range bench.Comparators(1024, false) {
		b.Run(cfg.Name, func(b *testing.B) {
			tr := mkTree(b, cfg.Opts, 20_000)
			b.ResetTimer()
			var seed atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				g := bench.NewGen(spec, seed.Add(1))
				for pb.Next() {
					op := g.Next()
					k := bench.Key(op.K)
					switch op.Kind {
					case bench.OpInsert:
						tr.Put(k, g.Value())
					case bench.OpSearch:
						tr.Get(k)
					case bench.OpDelete:
						tr.Delete(k)
					case bench.OpScan:
						cnt := 0
						tr.Scan(k, nil, func(_, _ []byte) bool {
							cnt++
							return cnt < 20
						})
					}
				}
			})
		})
	}
}

// --- E2: utilization under skewed purge --------------------------------

func BenchmarkE2SkewedPurge(b *testing.B) {
	for _, cfg := range bench.Comparators(1024, false) {
		if cfg.Name == "no-delete" || cfg.Name == "serial-smo" {
			continue
		}
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := mkTree(b, cfg.Opts, 10_000)
				g := bench.NewGen(bench.Spec{KeySpace: 10_000, Dist: bench.Zipf, ZipfS: 1.3,
					Mix: bench.Mix{Delete: 100}}, int64(i))
				b.StartTimer()
				for j := 0; j < 8000; j++ {
					tr.Delete(bench.Key(g.NextKey()))
				}
				tr.DrainTodo()
				b.StopTimer()
				util, err := bench.LeafUtilization(tr, 1024)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(util, "leaf-fill")
				b.ReportMetric(float64(tr.StoreStats().LivePages), "live-pages")
				tr.Close()
				b.StartTimer()
			}
		})
	}
}

// --- E3: log records per consolidation ---------------------------------

func BenchmarkE3Logging(b *testing.B) {
	for _, cfg := range bench.Comparators(1024, true) {
		if cfg.Name == "no-delete" || cfg.Name == "serial-smo" {
			continue
		}
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := cfg
				cfg.Opts.LogDevice = wal.NewMemDevice()
				tr := mkTree(b, cfg.Opts, 6000)
				b.StartTimer()
				for j := 0; j < 6000; j++ {
					tr.Delete(bench.Key(j))
				}
				for r := 0; r < 6; r++ {
					tr.DrainTodo()
					tr.Has(bench.Key(0))
				}
				b.StopTimer()
				appends, _ := tr.LogStats()
				s := tr.Stats()
				if cons := s.LeafConsolidated + s.IndexConsolidated; cons > 0 {
					b.ReportMetric(float64(appends)/float64(cons), "log-appends/consolidation")
				}
				tr.Close()
				b.StartTimer()
			}
		})
	}
}

// --- E4: delete-state profile -------------------------------------------

func BenchmarkE4DeleteHeavy(b *testing.B) {
	cfg := bench.Comparators(1024, false)[0]
	tr := mkTree(b, cfg.Opts, 20_000)
	g := bench.NewGen(bench.Spec{KeySpace: 20_000,
		Mix: bench.Mix{Delete: 60, Insert: 25, Search: 15}}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := g.Next()
		k := bench.Key(op.K)
		switch op.Kind {
		case bench.OpInsert:
			tr.Put(k, g.Value())
		case bench.OpDelete:
			tr.Delete(k)
		default:
			tr.Get(k)
		}
	}
	b.StopTimer()
	tr.DrainTodo()
	s := tr.Stats()
	if total := s.LeafConsolidated + s.IndexConsolidated; total > 0 {
		b.ReportMetric(100*float64(s.LeafConsolidated)/float64(total), "leaf-delete-%")
	}
	if posts := s.PostsDone + s.PostsAbortDX + s.PostsAbortDD + s.PostsAbortID; posts > 0 {
		b.ReportMetric(100*float64(s.PostsDone)/float64(posts), "post-success-%")
	}
}

// --- E5: transactional hotspot ------------------------------------------

func BenchmarkE5TxnHotspot(b *testing.B) {
	cfg := bench.Comparators(1024, false)[0]
	tr := mkTree(b, cfg.Opts, 64)
	val := make([]byte, 24)
	b.ResetTimer()
	var seed atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		g := bench.NewGen(bench.Spec{KeySpace: 64, Mix: bench.Mix{Insert: 60, Search: 40}}, seed.Add(1))
		for pb.Next() {
			for {
				x, err := tr.Begin()
				if err != nil {
					return
				}
				var oerr error
				for j := 0; j < 4 && oerr == nil; j++ {
					op := g.Next()
					if op.Kind == bench.OpInsert {
						oerr = x.Put(bench.Key(op.K), val)
					} else {
						_, oerr = x.Get(bench.Key(op.K))
						if errors.Is(oerr, core.ErrKeyNotFound) {
							oerr = nil
						}
					}
					runtime.Gosched()
				}
				if oerr == nil {
					oerr = x.Commit()
				} else if !errors.Is(oerr, core.ErrTxnAborted) {
					x.Abort()
				}
				if errors.Is(oerr, core.ErrTxnAborted) {
					continue
				}
				if oerr != nil {
					b.Error(oerr)
					return
				}
				break
			}
		}
	})
	b.StopTimer()
	s := tr.Stats()
	locks := tr.LockStats()
	if g := locks.ImmediateOK + s.NoWaitDenied; g > 0 {
		b.ReportMetric(100*float64(locks.ImmediateOK)/float64(g), "no-wait-success-%")
	}
	b.ReportMetric(float64(s.Relatches), "relatches")
}

// --- E6: lookup cost with unposted index terms ---------------------------

func BenchmarkE6SideTraversal(b *testing.B) {
	for _, phase := range []string{"pending", "posted"} {
		b.Run(phase, func(b *testing.B) {
			tr := mkTree(b, core.Options{PageSize: 1024, Workers: core.WorkersNone}, 0)
			// Maintenance lags by ~1/8 of the load (the lazy steady state);
			// "posted" then drains fully.
			val := make([]byte, 24)
			for i := 0; i < 20_000; i++ {
				tr.Put(bench.Key(i), val)
				if i%2500 == 0 {
					tr.DrainTodo()
				}
			}
			if phase == "posted" {
				tr.DrainTodo()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Get(bench.Key((i * 131) % 20_000))
			}
			b.StopTimer()
			s := tr.Stats()
			if s.Searches > 0 {
				b.ReportMetric(float64(s.SideTraversals)/float64(s.Searches), "side-traversals/op")
			}
		})
	}
}

// --- E7: scans concurrent with purge --------------------------------------

func BenchmarkE7ScanDuringPurge(b *testing.B) {
	for _, cfg := range bench.Comparators(1024, false) {
		if cfg.Name == "no-delete" {
			continue
		}
		b.Run(cfg.Name, func(b *testing.B) {
			tr := mkTree(b, cfg.Opts, 20_000)
			stop := make(chan struct{})
			go func() {
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					if i%7 != 0 {
						tr.Delete(bench.Key(i % 20_000))
					}
					i++
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cnt := 0
				tr.Scan(bench.Key((i*97)%20_000), nil, func(_, _ []byte) bool {
					cnt++
					return cnt < 50
				})
			}
			b.StopTimer()
			close(stop)
		})
	}
}

// --- E8: ablation ----------------------------------------------------------

func BenchmarkE8Ablation(b *testing.B) {
	for _, mode := range []struct {
		name   string
		single bool
	}{{"split-dx-dd", false}, {"single-counter", true}} {
		b.Run(mode.name, func(b *testing.B) {
			tr := mkTree(b, core.Options{
				PageSize: 1024, MinFill: 0.35, Workers: 2, SingleDeleteState: mode.single,
			}, 10_000)
			g := bench.NewGen(bench.Spec{KeySpace: 10_000,
				Mix: bench.Mix{Delete: 40, Insert: 40, Search: 20}}, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := g.Next()
				k := bench.Key(op.K)
				switch op.Kind {
				case bench.OpInsert:
					tr.Put(k, g.Value())
				case bench.OpDelete:
					tr.Delete(k)
				default:
					tr.Get(k)
				}
			}
			b.StopTimer()
			tr.DrainTodo()
			s := tr.Stats()
			done := s.LeafConsolidated + s.IndexConsolidated
			aborted := s.DeleteAbortDX + s.DeleteAbortID
			if done+aborted > 0 {
				b.ReportMetric(100*float64(aborted)/float64(done+aborted), "delete-abort-%")
			}
		})
	}
}

// --- E9: recovery time -------------------------------------------------------

func BenchmarkE9Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := wal.NewMemDevice()
		tr, err := core.New(core.Options{
			PageSize: 1024, Workers: 2,
			Store: storage.NewMemStore(1024), LogDevice: dev,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 5000; j++ {
			tr.Put(bench.Key(j), make([]byte, 24))
		}
		tr.FlushLog()
		dev.Crash()
		tr.Abandon()
		b.StartTimer()

		tr2, err := core.New(core.Options{
			PageSize: 1024, Workers: 2,
			Store: storage.NewMemStore(1024), LogDevice: dev,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n, _ := tr2.Len(); n != 5000 {
			b.Fatalf("recovered %d records", n)
		}
		tr2.Close()
		b.StartTimer()
	}
}

// --- E10: cost of delete support -----------------------------------------------

func BenchmarkE10Overhead(b *testing.B) {
	for _, cfg := range bench.Comparators(1024, false) {
		if cfg.Name != "delete-state" && cfg.Name != "no-delete" {
			continue
		}
		b.Run(cfg.Name, func(b *testing.B) {
			tr := mkTree(b, cfg.Opts, 20_000)
			b.ResetTimer()
			var seed atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				g := bench.NewGen(bench.Spec{KeySpace: 40_000,
					Mix: bench.Mix{Insert: 40, Search: 60}}, seed.Add(1))
				for pb.Next() {
					op := g.Next()
					if op.Kind == bench.OpInsert {
						tr.Put(bench.Key(op.K), g.Value())
					} else {
						tr.Get(bench.Key(op.K))
					}
				}
			})
		})
	}
}

// --- extensions ---------------------------------------------------------------

func BenchmarkBulkLoadVsPut(b *testing.B) {
	const n = 20_000
	b.Run("bulkload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr, err := core.New(core.Options{PageSize: 4096, Workers: core.WorkersNone})
			if err != nil {
				b.Fatal(err)
			}
			j := 0
			val := make([]byte, 24)
			b.StartTimer()
			err = tr.BulkLoad(func() ([]byte, []byte, bool) {
				if j >= n {
					return nil, nil, false
				}
				k := bench.Key(j)
				j++
				return k, val, true
			}, 0.9)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			tr.Close()
			b.StartTimer()
		}
	})
	b.Run("put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Background workers keep index terms posted; without them a
			// sequential load degrades into a leaf-chain walk.
			tr, err := core.New(core.Options{PageSize: 4096, Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 24)
			b.StartTimer()
			for j := 0; j < n; j++ {
				tr.Put(bench.Key(j), val)
			}
			b.StopTimer()
			tr.Close()
			b.StartTimer()
		}
	})
}

func BenchmarkReverseScan100(b *testing.B) {
	tr := mkTree(b, core.Options{PageSize: 4096, Workers: 2}, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := 0
		tr.ScanReverse(nil, bench.Key((i*977)%90_000+10_000), func(_, _ []byte) bool {
			cnt++
			return cnt < 100
		})
	}
}

// --- public API benchmark ---------------------------------------------------------

func BenchmarkPublicAPIPutGet(b *testing.B) {
	tr, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	val := make([]byte, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("user%010d", i%10000))
		tr.Put(k, val)
		tr.Get(k)
	}
}
