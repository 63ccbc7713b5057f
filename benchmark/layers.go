package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blinktree/internal/buffer"
	"blinktree/internal/latch"
	"blinktree/internal/lock"
	"blinktree/internal/page"
	"blinktree/internal/resp"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; the package's test lints the two against each other.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// The bounds are set by the noisiest workload, net.txn.durable, whose ack
// waits on this host's fsync (README, "Measured spread").
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"space_amp", "B/B", "lower", 0.05},
}

// p99Def is reported and compared as information only: on net.txn.durable its
// run-to-run spread (0.18 to 0.29) is beyond any bound the schema allows, and
// the schema has one bound per metric, not one per workload.
var p99Def = metricDef{"p99_us", "us", "lower", 0.25}

// report fills the run's metrics with defs, taking each value from values.
func (r *run) report(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
		r.res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return nil
}

// layerDefs are the per-layer metrics; layers are this repository's packages.
// *_ns are unit costs (the benchmark timing the layer's public functions on
// this record shape), the rest are counter deltas over the measured window
// divided by requests, or come from the traced replay.
var layerDefs = []metricDef{
	{name: "resp.codec_ns", unit: "ns", better: "lower"},
	{name: "server.wire_ns", unit: "ns", better: "lower"},
	{name: "server.ping_ns", unit: "ns", better: "lower"},
	{name: "server.replies_per_flush", unit: "1/flush", better: "higher"},
	{name: "core.tree_call_ns", unit: "ns", better: "lower"},
	{name: "core.nodes_per_op", unit: "1/op", better: "lower"},
	{name: "core.smo_per_kop", unit: "1/kop", better: "lower"},
	{name: "core.optread_fallback_ratio", unit: "ratio", better: "lower"},
	{name: "core.inline_assist_per_kop", unit: "1/kop", better: "lower"},
	{name: "latch.pair_ns", unit: "ns", better: "lower"},
	{name: "latch.acquires_per_op", unit: "1/op", better: "lower"},
	{name: "latch.wait_ratio", unit: "ratio", better: "lower"},
	{name: "lock.pair_ns", unit: "ns", better: "lower"},
	{name: "lock.grants_per_txn", unit: "1/txn", better: "lower"},
	{name: "lock.wait_ratio", unit: "ratio", better: "lower"},
	{name: "buffer.hit_ns", unit: "ns", better: "lower"},
	{name: "buffer.hit_ns.g2", unit: "ns", better: "lower"},
	{name: "buffer.miss_ns", unit: "ns", better: "lower"},
	{name: "buffer.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.evictions_per_op", unit: "1/op", better: "lower"},
	{name: "buffer.writebacks_per_op", unit: "1/op", better: "lower"},
	{name: "page.unmarshal_ns", unit: "ns", better: "lower"},
	{name: "page.marshal_ns", unit: "ns", better: "lower"},
	{name: "page.bytes_per_entry", unit: "B", better: "lower"},
	{name: "wal.append_ns", unit: "ns", better: "lower"},
	{name: "wal.commit_ns", unit: "ns", better: "lower"},
	{name: "wal.appends_per_op", unit: "1/op", better: "lower"},
	{name: "wal.commits_per_force", unit: "ratio", better: "higher"},
	{name: "wal.bytes_per_user_byte", unit: "B/B", better: "lower"},
	{name: "wal.recover_s", unit: "s", better: "lower"},
	{name: "storage.read_ns", unit: "ns", better: "lower"},
	{name: "storage.write_ns", unit: "ns", better: "lower"},
	{name: "storage.sync_ns", unit: "ns", better: "lower"},
	{name: "storage.reads_per_op", unit: "1/op", better: "lower"},
	{name: "storage.writes_per_op", unit: "1/op", better: "lower"},
	{name: "storage.bytes_per_user_byte", unit: "B/B", better: "lower"},
	{name: "model.predicted_ns", unit: "ns", better: "lower"},
	{name: "model.measured_ns", unit: "ns", better: "lower"},
	{name: "model.residual_ratio", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.background_busy_ratio", unit: "ratio", better: "lower"},
}

// counterWindow is the public counters read on either side of the window.
type counterWindow struct{ before, after counters }

// d returns the growth of one counter over the window.
func (cw counterWindow) d(f func(c *counters) uint64) float64 {
	return float64(f(&cw.after) - f(&cw.before))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers fills the run's metrics with the per-layer set: counts from the
// measured window cw of st, unit costs timed now, and self times from the
// traced spans of tr. single is the untraced one-client baseline.
func (r *run) layers(st phaseStats, cw counterWindow, single phaseStats, tr *tracer) error {
	m := map[string]float64{}
	reqs := float64(st.attempted)

	// Counts per request over the measured window.
	hits := cw.d(func(c *counters) uint64 { return c.Pool.Hits })
	misses := cw.d(func(c *counters) uint64 { return c.Pool.Misses })
	evictions := cw.d(func(c *counters) uint64 { return c.Pool.Evictions })
	writebacks := cw.d(func(c *counters) uint64 { return c.Pool.WriteBacks })
	acquires := cw.d(func(c *counters) uint64 {
		return c.Latch.AcquireShared + c.Latch.AcquireUpdate + c.Latch.AcquireExclusive
	})
	latchWaits := cw.d(func(c *counters) uint64 { return c.Latch.Waits })
	grants := cw.d(func(c *counters) uint64 { return c.Locks.Grants })
	lockWaits := cw.d(func(c *counters) uint64 { return c.Locks.Waits })
	commits := cw.d(func(c *counters) uint64 { return c.Stats.TxnCommits })
	consolidations := cw.d(func(c *counters) uint64 { return c.Stats.LeafConsolidated + c.Stats.IndexConsolidated })
	smos := consolidations + cw.d(func(c *counters) uint64 { return c.Stats.Splits + c.Stats.PostsDone })
	appends := cw.d(func(c *counters) uint64 { return c.WAL.Appends })
	forces := cw.d(func(c *counters) uint64 { return c.WAL.Forces })
	reads := cw.d(func(c *counters) uint64 { return c.Store.Reads })
	writes := cw.d(func(c *counters) uint64 { return c.Store.Writes })
	// User bytes written: one record per insert or update the tree counted.
	written := userBytes * cw.d(func(c *counters) uint64 { return c.Stats.Inserts + c.Stats.Updates })

	m["core.nodes_per_op"] = ratio(hits+misses, reqs)
	m["core.smo_per_kop"] = 1000 * ratio(smos, reqs)
	m["core.optread_fallback_ratio"] = ratio(
		cw.d(func(c *counters) uint64 { return c.Stats.OptReadFallbacks }),
		cw.d(func(c *counters) uint64 { return c.Stats.OptReadAttempts }))
	m["core.inline_assist_per_kop"] = 1000 * ratio(cw.d(func(c *counters) uint64 { return c.Stats.TodoInlineAssists }), reqs)
	m["latch.acquires_per_op"] = ratio(acquires, reqs)
	m["latch.wait_ratio"] = ratio(latchWaits, acquires)
	m["lock.grants_per_txn"] = ratio(grants, commits)
	m["lock.wait_ratio"] = ratio(lockWaits, grants)
	m["buffer.hit_ratio"] = ratio(hits, hits+misses)
	m["buffer.evictions_per_op"] = ratio(evictions, reqs)
	m["buffer.writebacks_per_op"] = ratio(writebacks, reqs)
	m["wal.appends_per_op"] = ratio(appends, reqs)
	m["wal.commits_per_force"] = ratio(
		cw.d(func(c *counters) uint64 { return c.WAL.GroupCommits }),
		cw.d(func(c *counters) uint64 { return c.WAL.GroupForces }))
	m["wal.bytes_per_user_byte"] = ratio(float64(cw.after.LogBytes-cw.before.LogBytes), written)
	m["wal.recover_s"] = r.res.Info["recover_s"]
	m["storage.reads_per_op"] = ratio(reads, reqs)
	m["storage.writes_per_op"] = ratio(writes, reqs)
	m["storage.bytes_per_user_byte"] = ratio(writes*pageSize, written)
	m["server.replies_per_flush"] = r.repliesPerFlush
	r.logf("window counts: %.0f requests, %.0f SMOs of which %.0f consolidations, %.0f pool misses, %.0f store reads, %.0f store writes",
		reqs, smos, consolidations, misses, reads, writes)

	// Unit costs.
	unit, err := unitCosts(filepath.Join(filepath.Dir(r.dir), "unit"), r.cfg.perUnit(), r.cfg.blinkd)
	if err != nil {
		return fmt.Errorf("unit costs: %w", err)
	}
	for k, v := range unit {
		m[k] = v
	}

	// Traced spans: the traced client's (net.* only) come first, the
	// replay's against the benchmark's own stack after r.replayFrom.
	spans := tr.finish()
	self := selfTimes(spans)
	replay := summarize(spans, self, r.replayFrom, len(spans))
	r.logSpans("traced replay (tree.call, devices)", replay)
	call := replay[spTreeCall]
	m["core.tree_call_ns"] = call.meanSelf()
	// The tracing overhead compares the request as the untraced one-client
	// baseline saw it with the traced op span of the same stream.
	tracedP50 := replay[spOp].median
	m["server.wire_ns"] = 0
	if r.w.net {
		client := summarize(spans, self, 1, r.replayFrom)
		r.logSpans("traced client (resp, wire)", client)
		m["server.wire_ns"] = client[spWire].median - call.median
		tracedP50 = client[spOp].median
	}
	m["trace.overhead_ratio"] = ratio(tracedP50, single.p50) - 1
	r.logf("one client p50: untraced %.2f us, traced %.2f us", single.p50/1e3, tracedP50/1e3)
	bg := spans[backgroundID]
	m["trace.background_busy_ratio"] = ratio(float64(bg.end-bg.start-self[backgroundID]), float64(bg.end-bg.start))

	// The model: what the counted work should cost at the unit costs, beside
	// what one tree call took in the traced replay.
	perReq := func(x float64) float64 { return ratio(x, reqs) }
	predicted := perReq(hits)*m["buffer.hit_ns"] +
		perReq(misses)*m["buffer.miss_ns"] +
		perReq(acquires)*m["latch.pair_ns"] +
		perReq(grants)*m["lock.pair_ns"] +
		perReq(appends)*m["wal.append_ns"] +
		perReq(forces)*(m["wal.commit_ns"]-m["wal.append_ns"]) +
		perReq(writebacks)*(m["page.marshal_ns"]+m["storage.write_ns"])
	m["model.predicted_ns"] = predicted
	m["model.measured_ns"] = call.mean()
	m["model.residual_ratio"] = ratio(call.mean()-predicted, call.mean())

	if err := r.report(layerDefs, m); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.work, "spans-"+r.w.name+".json")
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	r.logf("%d spans written to %s", len(spans), path)
	return nil
}

func (r *run) logSpans(title string, sum [spanNames]spanSummary) {
	r.logf("%s:", title)
	r.logf("  %-14s %9s %12s %12s %12s", "span", "count", "mean ns", "median ns", "self mean ns")
	for n, s := range sum {
		if s.count > 0 {
			r.logf("  %-14s %9d %12.0f %12.0f %12.0f", spanNameStr[n], s.count, s.mean(), s.median, s.meanSelf())
		}
	}
}

// perCall times fn, which runs n calls, in growing batches until budget is
// spent, and returns nanoseconds per call.
func perCall(budget time.Duration, fn func(n int)) float64 {
	var spent time.Duration
	calls, n := 0, 1
	for spent < budget {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		spent += d
		calls += n
		if d < budget/16 {
			n *= 2
		}
	}
	return float64(spent) / float64(calls)
}

// perCall2 is perCall on two goroutines at once; it returns their mean.
func perCall2(budget time.Duration, fn func(g, n int)) float64 {
	var out [2]float64
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = perCall(budget, func(n int) { fn(g, n) })
		}(g)
	}
	wg.Wait()
	return (out[0] + out[1]) / 2
}

// pageObject and pageCodec let the benchmark drive buffer.Pool directly with
// real page images.
type pageObject struct{ c *page.Content }

func (o pageObject) PageLSN() wal.LSN                     { return wal.LSN(o.c.LSN) }
func (o pageObject) Marshal(pageSize int) ([]byte, error) { return page.Marshal(o.c, pageSize) }

type pageCodec struct{}

func (pageCodec) Unmarshal(data []byte) (buffer.Object, error) {
	c, err := page.Unmarshal(data)
	return pageObject{c}, err
}

// leafFill is the byte budget of a leaf bulk-loaded at bulkFill.
const leafFill = pageSize * 85 / 100

// leafOf builds the 85 %-full 4 KiB leaf of this benchmark's records that
// starts at key first.
func leafOf(id page.PageID, first uint64) *page.Content {
	c := &page.Content{ID: id, Kind: page.Leaf}
	for c.Size()+page.EntrySize(page.Leaf, keyLen, valLen) <= leafFill {
		k, v := make([]byte, keyLen), make([]byte, valLen)
		putKey(k, first+uint64(len(c.Keys)))
		putValue(v, first+uint64(len(c.Keys)), 0)
		c.Keys, c.Vals = append(c.Keys, k), append(c.Vals, v)
	}
	return c
}

// Unit-cost fixture sizes: the pool holds unitFrames pages of a unitPages
// store, so cycling over the store always misses and over hotPages always hits.
const (
	unitFrames = 256
	unitPages  = 2048
	hotPages   = 64
)

// unitCosts times each layer's public functions on this benchmark's record
// shape, for budget each, in dir.
func unitCosts(dir string, budget time.Duration, blinkd string) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := map[string]float64{}
	// check keeps the first error of the timed calls; the two-goroutine
	// measurement calls it concurrently.
	var firstErr error
	var once sync.Once
	check := func(err error) {
		if err != nil {
			once.Do(func() { firstErr = err })
		}
	}

	// resp: one GET request and its 100-byte reply, encoded and decoded.
	key, val := make([]byte, keyLen), make([]byte, valLen)
	putValue(val, 1, 0)
	var frame []byte
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	m["resp.codec_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			frame = resp.AppendCommand(frame[:0], verbGet, key)
			rd.Reset(frame)
			br.Reset(&rd)
			_, err := resp.ReadCommand(br, 0)
			check(err)
			frame = resp.AppendBulk(frame[:0], val)
			rd.Reset(frame)
			br.Reset(&rd)
			_, err = resp.ReadReply(br, 0)
			check(err)
		}
	})

	// latch and lock: uncontended acquire and release.
	var l latch.Latch
	m["latch.pair_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			l.Acquire(latch.Shared)
			l.Release(latch.Shared)
		}
	})
	locks := lock.NewManager()
	res := lock.Resource(key)
	m["lock.pair_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			check(locks.Lock(1, res, lock.Exclusive))
			check(locks.Unlock(1, res))
		}
	})

	// page: the codec of one 85 %-full leaf.
	leaf := leafOf(1, 0)
	m["page.bytes_per_entry"] = float64(leaf.Size()) / float64(len(leaf.Keys))
	image, err := page.Marshal(leaf, pageSize)
	if err != nil {
		return nil, err
	}
	m["page.marshal_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := page.Marshal(leaf, pageSize)
			check(err)
		}
	})
	m["page.unmarshal_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := page.Unmarshal(image)
			check(err)
		}
	})

	// storage: a file store of unitPages leaves.
	store, err := storage.OpenFileStore(filepath.Join(dir, "pages.db"), pageSize)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	ids, err := store.AllocateBatch(unitPages)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		img, err := page.Marshal(leafOf(id, uint64(i)*100), pageSize)
		if err == nil {
			err = store.Write(id, img)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := store.Sync(); err != nil {
		return nil, err
	}
	next := 0
	cycle := func(over int) page.PageID {
		next++
		return ids[next%over]
	}
	m["storage.read_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := store.Read(cycle(unitPages))
			check(err)
		}
	})
	m["storage.write_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			check(store.Write(cycle(unitPages), image))
		}
	})
	// storage.sync_ns is one page write made durable: Write then Sync.
	m["storage.sync_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			check(store.Write(cycle(unitPages), image))
			check(store.Sync())
		}
	})

	// buffer: Fetch+Unpin of a resident page on one and two goroutines (the
	// gap is the pool mutex), and of a page that is never resident.
	pool := buffer.NewPool(store, nil, pageCodec{}, unitFrames)
	fetch := func(id page.PageID) {
		_, err := pool.Fetch(id)
		check(err)
		pool.Unpin(id, false)
	}
	m["buffer.hit_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			fetch(ids[i%hotPages])
		}
	})
	m["buffer.hit_ns.g2"] = perCall2(budget, func(g, n int) {
		for i := 0; i < n; i++ {
			fetch(ids[(i+g*hotPages/2)%hotPages])
		}
	})
	m["buffer.miss_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			fetch(cycle(unitPages))
		}
	})

	// wal: Log.Append of one record update to a file device without a force,
	// and the same followed by a forced commit, one writer.
	dev, err := wal.OpenFileDevice(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	log, err := wal.NewLog(dev)
	if err != nil {
		return nil, err
	}
	rec := func() *wal.Record {
		return &wal.Record{Type: wal.TRecOp, Op: wal.OpUpdate, Txn: 1, Page: 1, Key: key, Val: val, OldVal: val}
	}
	m["wal.append_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := log.Append(rec())
			check(err)
		}
	})
	m["wal.commit_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			lsn, err := log.Append(rec())
			check(err)
			check(log.Commit(lsn))
		}
	})

	// server: the depth-1 PING floor of a blinkd with nothing stored.
	ping := filepath.Join(dir, "ping")
	if err := os.MkdirAll(ping, 0o755); err != nil {
		return nil, err
	}
	srv, err := startBlinkd(blinkd, ping)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	c, err := dialExec(srv.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	m["server.ping_ns"] = perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			check(c.ping())
		}
	})
	return m, firstErr
}
