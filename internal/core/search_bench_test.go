package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"blinktree/internal/page"
	"blinktree/internal/storage"
)

// BenchmarkKeySearch measures the in-node search every traversal step
// funnels through, Records.Search under a comparator call per probe beside
// its search on the slots' key heads, which a bytewise tree runs, on two key
// shapes: ASCII "key-%06d", and the benchmark harness's 8 zero bytes plus a
// big-endian id, whose shared leading zeros are why the heads' prefix skips
// keys[0].
func BenchmarkKeySearch(b *testing.B) {
	cmp := bytes.Compare
	shapes := []struct {
		name string
		key  func(i int) []byte
	}{
		{"ascii", func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }},
		{"binary", func(i int) []byte { return binary.BigEndian.AppendUint64(make([]byte, 8, 16), uint64(i)) }},
	}
	for _, shape := range shapes {
		for _, n := range []int{16, 64, 256} {
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = shape.key(i * 3)
			}
			probe := make([][]byte, 64)
			for i := range probe {
				probe[i] = shape.key((i * 97) % (n * 3))
			}
			s := indexOver(keys)
			b.Run(fmt.Sprintf("comparator/%s/%d", shape.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.Recs.Search(cmp, probe[i%len(probe)])
				}
			})
			b.Run(fmt.Sprintf("heads/%s/%d", shape.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.Recs.Search(nil, probe[i%len(probe)])
				}
			})
		}
	}
}

// BenchmarkCachedGet is the whole cached point read under the CI scaling
// gate (read-path job: ns/op at -cpu 2 at most 0.8x that at -cpu 1): 100k
// bulk-loaded 16+100-byte records, all 3.6k pages resident, every goroutine
// reading uniformly random keys — the shape of the emb.read.cached workload.
// The keys are built up front and the value lands in a per-goroutine buffer,
// so neither the harness nor the tree allocates and the ratio measures what a
// reader shares with the reader on the other core.
func BenchmarkCachedGet(b *testing.B) {
	const n = 100_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%015d", i))
	}
	tr := newTestTree(b, Options{PageSize: 4096})
	val := bytes.Repeat([]byte{'v'}, 100)
	i := 0
	if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		if i == n {
			return nil, nil, false
		}
		i++
		return keys[i-1], val, true
	}, 0.85); err != nil {
		b.Fatal(err)
	}
	for _, k := range keys { // fault every page in
		if ok, err := tr.Has(k); !ok || err != nil {
			b.Fatalf("Has(%s) = %v, %v", k, ok, err)
		}
	}
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(0x9E3779B97F4A7C15)
		buf := make([]byte, 0, 128)
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if _, err := tr.GetInto(buf, keys[x%n]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkLeafMiss is the standing cost of a leaf miss: each op fetches and
// unpins a leaf that is not resident, so it is one FileStore read, one decode
// and one node, plus the eviction of a clean frame. The tree holds the
// benchmark harness's record shape (16-byte keys, 100-byte values, 85 %-full
// 4 KiB leaves) in 16 times more leaves than the pool has frames. The
// evicted leaf is untouched, so the read goes into its image and a miss
// allocates no page: more than 3 allocations or 1 KiB per op fails the
// benchmark (the node, its slot array and its fence arena are what remain).
func BenchmarkLeafMiss(b *testing.B) {
	const frames = 64
	store, err := storage.OpenFileStore(filepath.Join(b.TempDir(), "pages.db"), 4096)
	if err != nil {
		b.Fatal(err)
	}
	tr := newTestTree(b, Options{PageSize: 4096, CacheSize: frames, Store: store})
	val := bytes.Repeat([]byte{'v'}, 100)
	i := 0
	if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		i++
		return binary.BigEndian.AppendUint64(make([]byte, 8, 16), uint64(i)), val, i <= 16*frames*30
	}, 0.85); err != nil {
		b.Fatal(err)
	}
	leaves, err := tr.LevelNodes(0)
	if err != nil || len(leaves) < 16*frames {
		b.Fatalf("%d leaves for %d frames (%v)", len(leaves), frames, err)
	}
	fetch := func(id page.PageID) {
		n, err := tr.fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		tr.unpin(n)
	}
	// Warm: the pool fills with leaves read for their frames, as it is in a
	// steady stream of misses. The loop below reaches these leaves last.
	for _, id := range leaves[len(leaves)-4*frames:] {
		fetch(id)
	}
	before := tr.PoolStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch(leaves[i%len(leaves)])
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if hits := tr.PoolStats().Hits - before.Hits; hits > 0 {
		b.Fatalf("%d of %d fetches hit: the leaves were resident", hits, b.N)
	}
	// Per op as -benchmem reports it: truncated.
	allocs, perOp := (m1.Mallocs-m0.Mallocs)/uint64(b.N), (m1.TotalAlloc-m0.TotalAlloc)/uint64(b.N)
	if allocs > 3 || perOp > 1024 {
		b.Fatalf("a leaf miss allocates %d times and %d B, gate is 3 and 1024", allocs, perOp)
	}
}
