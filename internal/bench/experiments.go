package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"blinktree/internal/core"
	"blinktree/internal/sim"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// Scale sizes an experiment run.
type Scale struct {
	Preload int
	Ops     int
	Threads []int
}

// Quick is the CI/test scale; Full is the reporting scale used by
// cmd/blinkbench and EXPERIMENTS.md.
var (
	Quick = Scale{Preload: 10_000, Ops: 20_000, Threads: []int{1, 4}}
	Full  = Scale{Preload: 200_000, Ops: 400_000, Threads: []int{1, 2, 4, 8, 16, 32}}
)

// pageSize used by all experiments: small enough that structure
// modifications are frequent at laptop scale.
const expPageSize = 1024

// E1Throughput measures mixed-workload scalability of the paper's method
// against the three comparators (§1.2's concurrency argument).
func E1Throughput(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "mixed workload throughput (ops/s) vs goroutines",
		Header: []string{"config", "threads", "ops/s", "splits", "consolidations", "latch waits", "p50", "p99", "p999"},
	}
	spec := Spec{
		KeySpace: scale.Preload * 2,
		Preload:  scale.Preload,
		Ops:      scale.Ops,
		Mix:      Mix{Insert: 30, Search: 40, Delete: 25, Scan: 5},
	}
	for _, threads := range scale.Threads {
		for _, cfg := range Comparators(expPageSize, false) {
			res, err := Run(cfg, spec, threads)
			if err != nil {
				return nil, fmt.Errorf("E1 %s/%d: %w", cfg.Name, threads, err)
			}
			t.AddRow(cfg.Name, threads, int(res.Throughput),
				res.Stats.Splits, res.Stats.LeafConsolidated+res.Stats.IndexConsolidated,
				res.Latch.Waits, res.P50, res.P99, res.P999)
		}
	}
	if runtime.NumCPU() == 1 {
		t.Note("single-CPU host: concurrency differences show up in blocking metrics, not wall clock")
	}
	return t, nil
}

// E2Utilization reproduces the §1.3 claim: the drain approach leaves many
// under-utilized pages under skewed deletes, compromising utilization.
func E2Utilization(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "space utilization after skewed purge (delete-state vs drain)",
		Header: []string{"config", "live pages", "avg leaf fill", "consolidations", "husks pending"},
	}
	// A scattered purge — §1.3's "dropping a set of products from an
	// inventory database": most records go, but survivors are spread over
	// every leaf, so no page ever empties. This is the drain approach's
	// worst case; the delete-state method consolidates freely.
	spec := Spec{
		KeySpace: scale.Preload,
		Preload:  scale.Preload,
	}
	for _, cfg := range Comparators(expPageSize, false) {
		if cfg.Name == "no-delete" || cfg.Name == "serial-smo" {
			continue
		}
		// Deterministic maintenance: the experiment drives the to-do queue
		// explicitly so the measured quiescent state is reproducible.
		cfg.Opts.Workers = core.WorkersNone
		tr, err := core.New(cfg.Opts)
		if err != nil {
			return nil, err
		}
		if err := Preload(tr, spec.withDefaults()); err != nil {
			tr.Close()
			return nil, err
		}
		for i := 0; i < spec.Preload; i++ {
			if i%10 != 0 {
				if err := tr.Delete(Key(i)); err != nil {
					tr.Close()
					return nil, err
				}
			}
		}
		// Re-discover under-utilization with full read passes (every leaf
		// must be traversed for its occupancy to be noticed) until the
		// consolidation cascade reaches a fixpoint.
		prev := -1
		for r := 0; r < 30; r++ {
			tr.DrainTodo()
			if live := tr.StoreStats().LivePages; live == prev {
				break
			} else {
				prev = live
			}
			for i := 0; i < spec.KeySpace; i += 7 {
				tr.Has(Key(i))
			}
		}
		tr.DrainTodo()
		util, err := LeafUtilization(tr, expPageSize)
		if err != nil {
			tr.Close()
			return nil, err
		}
		s := tr.Stats()
		t.AddRow(cfg.Name, tr.StoreStats().LivePages, util,
			s.LeafConsolidated+s.IndexConsolidated, tr.DrainPending())
		tr.Close()
	}
	t.Note("drain consolidates only empty pages; skewed survivors keep pages alive")
	return t, nil
}

// E3Logging reproduces §1.3 point 2: the drain approach logs an extra
// update per deleted page.
func E3Logging(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "log records per consolidated node (delete-state vs drain)",
		Header: []string{"config", "consolidations", "log appends", "SMO records", "drain marks", "records/consolidation"},
	}
	for _, cfg := range Comparators(expPageSize, true) {
		if cfg.Name == "no-delete" || cfg.Name == "serial-smo" {
			continue
		}
		tr, err := core.New(cfg.Opts)
		if err != nil {
			return nil, err
		}
		n := scale.Preload
		for i := 0; i < n; i++ {
			if err := tr.Put(Key(i), make([]byte, 24)); err != nil {
				tr.Close()
				return nil, err
			}
		}
		tr.DrainTodo()
		appendsBefore, _ := tr.LogStats()
		// Sequential purge empties whole leaves (drain's best case).
		for i := 0; i < n; i++ {
			tr.Delete(Key(i))
		}
		for r := 0; r < 6; r++ {
			tr.DrainTodo()
			tr.Has(Key(0))
		}
		tr.DrainTodo()
		appendsAfter, _ := tr.LogStats()
		s := tr.Stats()
		cons := s.LeafConsolidated + s.IndexConsolidated
		if err := tr.FlushLog(); err != nil {
			tr.Close()
			return nil, err
		}
		marks, smoRecs := countSMORecords(cfg.Opts.LogDevice.(*wal.MemDevice))
		perCons := 0.0
		if cons > 0 {
			perCons = float64(smoRecs) / float64(cons)
		}
		t.AddRow(cfg.Name, cons, appendsAfter-appendsBefore, smoRecs, marks, perCons)
		tr.Close()
	}
	return t, nil
}

func countSMORecords(dev *wal.MemDevice) (drainMarks, consolidationSMOs int) {
	log, err := wal.NewLog(dev)
	if err != nil {
		return 0, 0
	}
	recs, err := log.DurableRecords()
	if err != nil {
		return 0, 0
	}
	for _, r := range recs {
		if r.Type != wal.TSMO {
			continue
		}
		switch r.SMO {
		case wal.SMODrainMark:
			drainMarks++
			consolidationSMOs++
		case wal.SMOConsolidate:
			consolidationSMOs++
		}
	}
	return drainMarks, consolidationSMOs
}

// E4DeleteState profiles delete-state traffic under a delete-heavy
// workload: the §4.1.1 claim that index-node deletes (hence D_X changes)
// are a small fraction, so parent accesses almost always succeed.
func E4DeleteState(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "delete-state profile under delete-heavy load",
		Header: []string{"metric", "value"},
	}
	cfg := Comparators(expPageSize, false)[0]
	spec := Spec{
		KeySpace: scale.Preload,
		Preload:  scale.Preload,
		Ops:      scale.Ops,
		Mix:      Mix{Delete: 60, Insert: 25, Search: 15},
	}
	res, err := Run(cfg, spec, 8)
	if err != nil {
		return nil, err
	}
	s := res.Stats
	leaf, index := s.LeafConsolidated, s.IndexConsolidated
	total := leaf + index
	t.AddRow("leaf node deletes", leaf)
	t.AddRow("index node deletes", index)
	if total > 0 {
		t.AddRow("leaf fraction (%)", 100*float64(leaf)/float64(total))
	}
	t.AddRow("D_X increments", s.DXIncrements)
	t.AddRow("postings done", s.PostsDone)
	t.AddRow("postings aborted (D_X)", s.PostsAbortDX)
	t.AddRow("postings aborted (D_D)", s.PostsAbortDD)
	t.AddRow("postings aborted (identity)", s.PostsAbortID)
	posts := s.PostsDone + s.PostsAbortDX + s.PostsAbortDD + s.PostsAbortID
	if posts > 0 {
		t.AddRow("posting success (%)", 100*float64(s.PostsDone)/float64(posts))
	}
	t.Note("paper §4.1.1: 'Over 99%% of node deletes will be for data nodes'")
	return t, nil
}

// E5Relatch measures the §2.4 no-wait lock protocol under transactional
// hotspot contention: denials are the exception, re-latches are fast, and
// D_X-triggered transaction aborts are rare.
func E5Relatch(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "no-wait locks and re-latch under hotspot contention",
		Header: []string{"metric", "value"},
	}
	cfg := Comparators(expPageSize, false)[0]
	tr, err := core.New(cfg.Opts)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	const hot = 64
	for i := 0; i < hot; i++ {
		tr.Put(Key(i), make([]byte, 24))
	}
	ops := scale.Ops / 4
	var wg sync.WaitGroup
	var txnOps, retries int64
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := NewGen(Spec{KeySpace: hot, Mix: Mix{Insert: 60, Search: 40}}, seed)
			local, localRetries := 0, 0
			for i := 0; i < ops/8; i++ {
				// Multi-operation transactions hold their record locks to
				// commit (strict 2PL), so hot keys conflict and the
				// no-wait / re-latch machinery engages.
				for {
					x, err := tr.Begin()
					if err != nil {
						return
					}
					var oerr error
					for j := 0; j < 4 && oerr == nil; j++ {
						op := gen.Next()
						if op.Kind == OpInsert {
							oerr = x.Put(Key(op.K), gen.Value())
						} else {
							_, oerr = x.Get(Key(op.K))
							if errors.Is(oerr, core.ErrKeyNotFound) {
								oerr = nil
							}
						}
						// Model transaction think time: without a yield,
						// single-CPU runs never interleave lock holders and
						// the contention under test cannot arise.
						runtime.Gosched()
					}
					if oerr == nil {
						oerr = x.Commit()
					} else if !errors.Is(oerr, core.ErrTxnAborted) {
						x.Abort()
					}
					if errors.Is(oerr, core.ErrTxnAborted) {
						localRetries++
						continue
					}
					if oerr != nil {
						return
					}
					local++
					break
				}
			}
			mu.Lock()
			txnOps += int64(local)
			retries += int64(localRetries)
			mu.Unlock()
		}(int64(g))
	}
	wg.Wait()
	s := tr.Stats()
	locks := tr.LockStats()
	t.AddRow("transactions committed", txnOps)
	t.AddRow("deadlock/state retries", retries)
	t.AddRow("lock requests granted immediately", locks.ImmediateOK)
	t.AddRow("no-wait denials", s.NoWaitDenied)
	if g := locks.ImmediateOK + s.NoWaitDenied; g > 0 {
		t.AddRow("no-wait success (%)", 100*float64(locks.ImmediateOK)/float64(g))
	}
	t.AddRow("re-latches", s.Relatches)
	t.AddRow("re-latch fast path (D_D unchanged)", s.RelatchFast)
	t.AddRow("txn aborts from D_X", s.TxnAbortsDX)
	t.AddRow("txn aborts from deadlock", s.TxnDeadlocks)
	t.Note("paper §2.4: 'The no-wait lock request will almost always succeed'")
	return t, nil
}

// E6LazyPosting measures the cost of unposted index terms (extra node
// access per side traversal) and their repair (§2.3).
func E6LazyPosting(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "search cost with lazy (unposted) index terms",
		Header: []string{"phase", "searches", "side traversals", "traversals/search"},
	}
	cfg := core.Options{PageSize: expPageSize, MinFill: 0.35, Workers: core.WorkersNone}
	tr, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	// Maintenance lags rather than never runs: the queue is drained every
	// few thousand inserts, leaving the most recent splits unposted — the
	// steady state of a lazy-posting tree under load. Keys arrive in
	// random order so the unposted splits scatter across the key space.
	n := scale.Preload
	lag := n / 8
	if lag < 256 {
		lag = 256
	}
	order := rand.New(rand.NewSource(42)).Perm(n)
	for i, k := range order {
		if err := tr.Put(Key(k), make([]byte, 24)); err != nil {
			return nil, err
		}
		if i%lag == 0 {
			tr.DrainTodo()
		}
	}
	probe := func(phase string) {
		before := tr.Stats()
		for i := 0; i < n; i += 3 {
			tr.Get(Key(i))
		}
		after := tr.Stats()
		searches := after.Searches - before.Searches
		side := after.SideTraversals - before.SideTraversals
		t.AddRow(phase, searches, side, float64(side)/float64(searches))
	}
	probe("before repair (postings pending)")
	tr.DrainTodo() // the to-do queue posts everything discovered so far
	probe("after repair (index complete)")
	return t, nil
}

// E7RangeScan measures range-scan throughput while concurrent deleters
// shrink the tree (§3.1.4 cursors + re-latch).
func E7RangeScan(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "range scans concurrent with purge (delete-state method)",
		Header: []string{"config", "scans/s", "records/scan", "relatches", "restarts"},
	}
	for _, cfg := range Comparators(expPageSize, false) {
		if cfg.Name == "no-delete" {
			continue
		}
		tr, err := core.New(cfg.Opts)
		if err != nil {
			return nil, err
		}
		n := scale.Preload
		for i := 0; i < n; i++ {
			tr.Put(Key(i), make([]byte, 24))
		}
		tr.DrainTodo()

		stop := make(chan struct{})
		var del sync.WaitGroup
		del.Add(1)
		go func() {
			defer del.Done()
			for i := 0; i < n; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%7 != 0 {
					tr.Delete(Key(i))
				}
			}
		}()
		scans, records := 0, 0
		start := time.Now()
		deadline := start.Add(500 * time.Millisecond)
		for time.Now().Before(deadline) {
			k := (scans * 97) % n
			cnt := 0
			tr.Scan(Key(k), nil, func(_, _ []byte) bool {
				cnt++
				return cnt < 50
			})
			records += cnt
			scans++
		}
		elapsed := time.Since(start)
		close(stop)
		del.Wait()
		s := tr.Stats()
		perScan := 0.0
		if scans > 0 {
			perScan = float64(records) / float64(scans)
		}
		t.AddRow(cfg.Name, int(float64(scans)/elapsed.Seconds()), perScan, s.Relatches, s.Restarts)
		tr.Close()
	}
	return t, nil
}

// E8Ablation compares the paper's split D_X/D_D scheme against a single
// global delete counter (§4.1.2: "there is real value to localizing data
// node deletes to a sub-tree").
func E8Ablation(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "ablation: split D_X/D_D vs one global delete counter",
		Header: []string{"config", "posts done", "posts aborted", "deletes done", "deletes aborted", "delete abort rate (%)"},
	}
	run := func(name string, single bool) error {
		opts := core.Options{PageSize: expPageSize, MinFill: 0.35, Workers: 2, SingleDeleteState: single}
		spec := Spec{
			KeySpace: scale.Preload,
			Preload:  scale.Preload,
			Ops:      scale.Ops,
			Mix:      Mix{Delete: 40, Insert: 40, Search: 20},
		}
		res, err := Run(Config{Name: name, Opts: opts}, spec, 8)
		if err != nil {
			return err
		}
		s := res.Stats
		postsAborted := s.PostsAbortDX + s.PostsAbortDD + s.PostsAbortID
		delDone := s.LeafConsolidated + s.IndexConsolidated
		delAborted := s.DeleteAbortDX + s.DeleteAbortID
		rate := 0.0
		if delDone+delAborted > 0 {
			rate = 100 * float64(delAborted) / float64(delDone+delAborted)
		}
		t.AddRow(name, s.PostsDone, postsAborted, delDone, delAborted, rate)
		return nil
	}
	if err := run("split D_X/D_D (paper)", false); err != nil {
		return nil, err
	}
	if err := run("single global counter", true); err != nil {
		return nil, err
	}
	t.Note("one global counter makes every node delete invalidate every pending SMO: consolidations starve")
	return t, nil
}

// E9Recovery crashes a tree mid-run and verifies recovery: committed work
// survives, losers are rolled back, the tree is well-formed, and lost
// postings are re-discovered (§4.1.3: delete state and the to-do queue are
// volatile).
func E9Recovery(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "crash recovery: committed survives, losers undone, tree well-formed",
		Header: []string{"metric", "value"},
	}
	dev := wal.NewMemDevice()
	store := storage.NewMemStore(expPageSize)
	tr, err := core.New(core.Options{
		PageSize: expPageSize, MinFill: 0.35, Workers: 2,
		Store: store, LogDevice: dev,
	})
	if err != nil {
		return nil, err
	}
	n := scale.Preload / 2
	committed := 0
	for i := 0; i < n; i += 10 {
		x, err := tr.Begin()
		if err != nil {
			return nil, err
		}
		for j := i; j < i+10 && j < n; j++ {
			if err := x.Put(Key(j), make([]byte, 24)); err != nil {
				return nil, err
			}
		}
		if err := x.Commit(); err != nil {
			return nil, err
		}
		committed += 10
	}
	// In-flight loser at crash time.
	x, _ := tr.Begin()
	for j := 0; j < 50; j++ {
		x.Put(Key(n+j), make([]byte, 24))
	}
	tr.FlushLog()
	dev.Crash()
	tr.Abandon()

	start := time.Now()
	tr2, err := core.New(core.Options{
		PageSize: expPageSize, MinFill: 0.35, Workers: 2,
		Store: storage.NewMemStore(expPageSize), LogDevice: dev,
	})
	if err != nil {
		return nil, fmt.Errorf("recovery failed: %w", err)
	}
	defer tr2.Close()
	recoveryTime := time.Since(start)

	cnt, err := tr2.Len()
	if err != nil {
		return nil, err
	}
	tr2.DrainTodo()
	verifyErr := tr2.Verify()
	t.AddRow("committed records", committed)
	t.AddRow("recovered records", cnt)
	t.AddRow("loser records rolled back", 50)
	t.AddRow("recovery time", recoveryTime.String())
	wellFormed := "PASS"
	if verifyErr != nil {
		wellFormed = "FAIL: " + verifyErr.Error()
	}
	t.AddRow("well-formed after recovery", wellFormed)
	match := "PASS"
	if cnt != committed {
		match = fmt.Sprintf("FAIL (%d != %d)", cnt, committed)
	}
	t.AddRow("committed == recovered", match)
	return t, nil
}

// E10Overhead measures the incremental cost of supporting node deletion
// (§4.2): the paper's method vs the no-delete variant on a workload with no
// node deletes at all.
func E10Overhead(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "cost of delete support on insert/search-only load",
		Header: []string{"config", "threads", "ops/s"},
	}
	spec := Spec{
		KeySpace: scale.Preload * 2,
		Preload:  scale.Preload,
		Ops:      scale.Ops,
		Mix:      Mix{Insert: 40, Search: 60},
	}
	for _, threads := range scale.Threads {
		for _, cfg := range Comparators(expPageSize, false) {
			if cfg.Name != "delete-state" && cfg.Name != "no-delete" {
				continue
			}
			res, err := Run(cfg, spec, threads)
			if err != nil {
				return nil, err
			}
			t.AddRow(cfg.Name, threads, int(res.Throughput))
		}
	}
	t.Note("delta = latch coupling + delete-state reads (paper §4.2.1)")
	return t, nil
}

// E11Scheduler profiles the maintenance scheduler under an SMO-heavy mixed
// workload: the queue-depth high-water mark, actions processed and
// duplicate discoveries collapsed, across thread counts.
func E11Scheduler(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "maintenance scheduler: ordering, queue depth",
		Header: []string{"threads", "ops/s", "queue hw", "processed", "dedup hits"},
	}
	spec := Spec{
		KeySpace: scale.Preload,
		Preload:  scale.Preload,
		Ops:      scale.Ops,
		Mix:      Mix{Insert: 40, Delete: 40, Search: 20},
	}
	for _, threads := range scale.Threads {
		res, err := Run(Comparators(expPageSize, false)[0], spec, threads)
		if err != nil {
			return nil, fmt.Errorf("E11 threads=%d: %w", threads, err)
		}
		s := res.Stats
		t.AddRow(threads, int(res.Throughput), s.TodoQueueHighWater, s.TodoProcessed, s.TodoDedupHits)
	}
	t.Note("index posts and shrinks pop first, then leaf work; index-node deletes pop last (they bump D_X)")
	t.Note("only the background workers run actions: no foreground operation is throttled")
	return t, nil
}

// E13CrashConsistency runs the crash-point enumeration harness
// (internal/sim): a seeded workload replayed once per persistence-operation
// boundary, crashed there, rebooted and recovered, with structural and
// shadow-model verification after every recovery. One row per fault-model
// configuration; a nonzero violations cell is a correctness failure, not a
// performance result.
func E13CrashConsistency(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "crash-point enumeration: recover-and-verify sweep",
		Header: []string{"faults", "seed", "crash points", "violations",
			"torn pages", "torn tails", "smo redo", "recop redo", "losers undone"},
	}
	// Scale maps onto workload length: Quick ~ the tier-1 smoke, Full adds
	// seeds and a longer history.
	steps, seeds := 350, []int64{1}
	if scale.Ops > Quick.Ops {
		steps, seeds = 580, []int64{1, 2, 3}
	}
	for _, torn := range []bool{false, true} {
		name := "clean-cut"
		if torn {
			name = "torn-writes"
		}
		for _, seed := range seeds {
			rep, err := sim.Run(sim.Config{
				Seed:           seed,
				Steps:          steps,
				TornPageWrites: torn,
				TornWALTail:    torn,
			})
			if err != nil {
				return nil, fmt.Errorf("E13 %s/seed=%d: %w", name, seed, err)
			}
			t.AddRow(name, seed, rep.CrashPoints, len(rep.Violations),
				rep.TornPages, rep.TornTails, rep.SMOsRedone, rep.RecOpsRedone,
				rep.LosersUndone)
			for _, v := range rep.Violations {
				t.Note("VIOLATION %s seed=%d: %s", name, seed, v)
			}
		}
	}
	t.Note("every crash point: reboot, recover, DrainTodo, VerifyDeep, shadow-model prefix equivalence")
	t.Note("violations must be zero; nonzero rows are crash-consistency bugs, not slow paths")
	return t, nil
}

// E14SkewTolerance runs the skew scenario matrix (skew.go): every key
// distribution at every goroutine count. The table shows whether skewed load
// collapses throughput relative to uniform, and where the right-edge append
// fast path serves inserts (seq-append: fast-path hits).
func E14SkewTolerance(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "skew tolerance: distribution x goroutines",
		Header: []string{"dist", "threads", "ops/s", "fastpath hits", "latch waits"},
	}
	cfg := SkewConfig{
		KeySpace: scale.Preload * 2,
		Preload:  scale.Preload,
		Ops:      scale.Ops,
	}
	if len(scale.Threads) > 0 {
		cfg.Goroutines = scale.Threads
	}
	rep, err := RunSkew(cfg)
	if err != nil {
		return nil, fmt.Errorf("E14: %w", err)
	}
	for _, res := range rep.Results {
		t.AddRow(res.Dist, res.Goroutines, int(res.OpsPerSec), res.AppendFastHits, res.LatchWaits)
	}
	t.Note("seq-append rows are where the append fast path serves nearly every insert")
	return t, nil
}

// E15ScaleTier measures the scale tier (scale.go): bulk-load throughput,
// the built tree's shape (height and index fanout under compact
// separators), and post-load point/range latency. Tiers derive from the
// scale so that Full lands exactly on the 10M/20M acceptance tiers.
func E15ScaleTier(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "scale tier: bulk load + compact index pages",
		Header: []string{"keys", "rows/s", "pages", "chunks", "height",
			"fanout", "get p50", "get p99", "put p50", "put p99", "scan ns/key", "clean"},
	}
	cfg := ScaleConfig{
		Tiers:  []int{scale.Preload * 50, scale.Preload * 100},
		Probes: 1000,
	}
	rep, err := RunScale(cfg)
	if err != nil {
		return nil, fmt.Errorf("E15: %w", err)
	}
	for _, res := range rep.Results {
		t.AddRow(res.Keys, int(res.RowsPerSec), res.PagesBuilt,
			res.Chunks, res.Height, res.IndexFanout,
			time.Duration(res.GetP50NS).String(), time.Duration(res.GetP99NS).String(),
			time.Duration(res.PutP50NS).String(), time.Duration(res.PutP99NS).String(),
			fmt.Sprintf("%.0f", res.ScanNSPerKey), fmt.Sprint(res.VerifyClean))
	}
	t.Note("%d cores, GOMAXPROCS %d (one bulk-load builder each), rev %q", rep.Cores, rep.GOMAXPROCS, rep.GitRev)
	t.Note("at -scale full the tiers are 10M and 20M keys (the acceptance tier); quick shrinks them 20x")
	t.Note("fanout = avg children per index node; fixed-width keys isolate the compact-separator effect")
	return t, nil
}

// E16NetworkedService measures the networked service tier (remote.go): an
// in-process blinkd server driven over loopback TCP at each connection
// count and pipeline depth, against the embedded direct-API baseline at
// the same concurrency. The embedded/net gap prices the wire layer; the
// depth-1/depth-32 gap prices round trips versus pipelining.
func E16NetworkedService(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "networked service: embedded vs blinkd over loopback",
		Header: []string{"mode", "conns", "pipeline", "ops", "ops/s", "errors"},
	}
	cfg := NetConfig{Ops: scale.Ops}
	if scale.Ops <= Quick.Ops {
		// Quick scale: trim the sweep so the cell count stays cheap.
		cfg.Conns = []int{1, 4, 16}
		cfg.Ops = scale.Ops / 2
	}
	rep, err := RunNet(cfg)
	if err != nil {
		return nil, fmt.Errorf("E16: %w", err)
	}
	for _, res := range rep.Results {
		pipe := "-"
		if res.Mode == "net" {
			pipe = fmt.Sprint(res.Pipeline)
		}
		t.AddRow(res.Mode, res.Conns, pipe, res.Ops, int(res.Throughput), res.Errors)
	}
	if desc, err := rep.GatePipeline(16, 2.0); err == nil {
		t.Note("pipeline gate: %s", desc)
	}
	t.Note("embedded rows call the public API directly (pipeline '-'); net rows cross loopback TCP")
	t.Note("depth-1 pays one round trip per op; blinkbench -net -out BENCH_net.json persists the report")
	return t, nil
}

// Experiments maps experiment IDs to their implementations.
var Experiments = map[string]func(Scale) (*Table, error){
	"E1":  E1Throughput,
	"E2":  E2Utilization,
	"E3":  E3Logging,
	"E4":  E4DeleteState,
	"E5":  E5Relatch,
	"E6":  E6LazyPosting,
	"E7":  E7RangeScan,
	"E8":  E8Ablation,
	"E9":  E9Recovery,
	"E10": E10Overhead,
	"E11": E11Scheduler,
	"E13": E13CrashConsistency,
	"E14": E14SkewTolerance,
	"E15": E15ScaleTier,
	"E16": E16NetworkedService,
}

// ExperimentIDs lists experiment IDs in order.
var ExperimentIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E13", "E14", "E15", "E16"}
