// Command blinkbench regenerates the experiments in DESIGN.md/EXPERIMENTS.md:
// every figure of the paper (as an executable walkthrough) and every
// quantitative claim (as a benchmark table against the comparator
// algorithms).
//
// Usage:
//
//	blinkbench -exp all                 # run everything at quick scale
//	blinkbench -exp E2,E3 -scale full   # specific experiments, full scale
//	blinkbench -exp figures             # Figures 1-4 walkthrough
//	blinkbench -list                    # list experiments
//	blinkbench -lat                     # mixed-workload latency profile
//	blinkbench -lat -json               # ... plus the expvar JSON snapshot
//	blinkbench -lat -trace              # ... plus the SMO trace events
//	blinkbench -spans                   # ... plus sampled operation spans and
//	                                    #     the tail-latency attribution table
//	blinkbench -spans -spansout t.json  # ... and write the spans as Chrome
//	                                    #     trace-event JSON (Perfetto)
//	blinkbench -commit                  # commit-path durability sweep
//	blinkbench -commit -out BENCH_commit.json -gate 4
//	                                    # ... persist the trajectory and fail
//	                                    #     unless 16 writers share forces
//	                                    #     and run >= 4x one writer
//	blinkbench -load                    # bulk-load scale sweep (10M + 20M keys)
//	blinkbench -load -keys 10000000 -fill 0.9 -out BENCH_scale.json
//	                                    # ... persist the trajectory
//	blinkbench -skew                    # skew scenario matrix (distribution x
//	                                    #     goroutines x append fast path)
//	blinkbench -skew -out BENCH_skew.json -skewfrac 0.25
//	                                    # ... persist the matrix and fail
//	                                    #     unless zipf holds 25% of uniform
//	blinkbench -remote 127.0.0.1:6380   # drive a running blinkd server
//	blinkbench -remote :6380 -conns 16 -pipeline 32 -dist zipf -txnevery 10
//	                                    # ... 16 pipelined connections, skewed
//	                                    #     keys, every 10th op transactional
//	blinkbench -net                     # embedded-vs-networked sweep (E16)
//	blinkbench -net -out BENCH_net.json -netgate 2.0
//	                                    # ... persist the report and fail
//	                                    #     unless pipelined >= 2x unpipelined
//	                                    #     at 16 connections
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"blinktree/blinkmetrics"
	"blinktree/internal/bench"
	"blinktree/internal/buildinfo"
	"blinktree/internal/core"
	"blinktree/internal/obs"
	"blinktree/internal/wal"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiments to run: all, figures, or comma-separated IDs (see -list)")
		scale    = flag.String("scale", "quick", "quick or full")
		preload  = flag.Int("preload", 0, "override preload record count")
		ops      = flag.Int("ops", 0, "override measured operation count")
		list     = flag.Bool("list", false, "list experiments and exit")
		lat      = flag.Bool("lat", false, "run a mixed-workload latency profile (p50/p99/p999 per operation class) instead of experiments")
		jsonOut  = flag.Bool("json", false, "with -lat: print the expvar JSON metrics snapshot after the profile")
		traceOut = flag.Bool("trace", false, "with -lat: print the buffered SMO trace events after the profile")
		spansOut = flag.Bool("spans", false, "with -lat (implied): sample operation spans and print the tail-latency attribution table")
		spansTo  = flag.String("spansout", "", "with -spans: write the sampled spans as Chrome trace-event JSON to this file")
		sample   = flag.Int("sample", 64, "with -spans: sample one operation span in every N operations")
		version  = flag.Bool("version", false, "print build information and exit")

		commit     = flag.Bool("commit", false, "run the commit-path durability sweep instead of experiments")
		durability = flag.String("durability", "sync", "with -commit: comma-separated durability modes to measure (sync, periodic, async)")
		writers    = flag.String("writers", "1,2,4,16", "with -commit: comma-separated concurrent committer counts")
		commitOps  = flag.Int("commitops", 200, "with -commit: transactions per writer")
		out        = flag.String("out", "", "with -commit or -skew: also write the JSON report to this file")
		gate       = flag.Float64("gate", 0, "with -commit: exit nonzero unless, at the highest writer count, sync runs >= 2 commits/force and >= gate x the one-writer commits/s (0 disables)")

		load     = flag.Bool("load", false, "run the bulk-load scale sweep instead of experiments")
		loadKeys = flag.String("keys", "10000000,20000000", "with -load: comma-separated tier sizes (keys to load)")
		loadFill = flag.Float64("fill", 0.85, "with -load: bulk-load fill factor")

		remote    = flag.String("remote", "", "drive a running blinkd server at this address instead of running experiments")
		conns     = flag.Int("conns", 4, "with -remote: concurrent client connections")
		pipeline  = flag.Int("pipeline", 1, "with -remote: commands kept in flight per connection (1 = strict request/response)")
		remoteOps = flag.Int("remoteops", 10000, "with -remote: total measured operations")
		dist      = flag.String("dist", "uniform", "with -remote: key distribution (uniform, zipf, sequential, hotspot, moving-hotspot, seq-append)")
		txnEvery  = flag.Int("txnevery", 0, "with -remote: wrap every Nth operation in BEGIN/COMMIT (0 disables)")

		netSweep    = flag.Bool("net", false, "run the embedded-vs-networked comparison (E16) instead of experiments")
		netConns    = flag.String("netconns", "1,4,16,64", "with -net: comma-separated connection counts")
		netPipeline = flag.String("netpipeline", "1,32", "with -net: comma-separated pipeline depths")
		netOps      = flag.Int("netops", 0, "with -net: measured operations per cell (0 = default 20000)")
		netGate     = flag.Float64("netgate", 0, "with -net: exit nonzero unless pipelined throughput >= netgate x unpipelined at 16 connections (0 disables)")

		skew       = flag.Bool("skew", false, "run the skew scenario matrix instead of experiments")
		skewThread = flag.String("skewthreads", "1,4,8,16", "with -skew: comma-separated goroutine counts")
		skewOps    = flag.Int("skewops", 0, "with -skew: measured operations per cell (0 = default 20000)")
		skewFrac   = flag.Float64("skewfrac", 0, "with -skew: exit nonzero unless zipf throughput >= skewfrac * uniform throughput at the highest goroutine count, append fast path on (0 disables)")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	if *commit {
		if err := commitSweep(os.Stdout, *durability, *writers, *commitOps, *out, *gate); err != nil {
			fmt.Fprintf(os.Stderr, "commit sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *load {
		if err := loadSweep(os.Stdout, *loadKeys, *loadFill, *out); err != nil {
			fmt.Fprintf(os.Stderr, "load sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *skew {
		if err := skewSweep(os.Stdout, *skewThread, *skewOps, *out, *skewFrac); err != nil {
			fmt.Fprintf(os.Stderr, "skew sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *remote != "" {
		if err := remoteRun(os.Stdout, *remote, *conns, *pipeline, *remoteOps, *dist, *txnEvery); err != nil {
			fmt.Fprintf(os.Stderr, "remote run: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *netSweep {
		if err := netRun(os.Stdout, *netConns, *netPipeline, *netOps, *out, *netGate); err != nil {
			fmt.Fprintf(os.Stderr, "net sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println("figures  Figures 1-4 walkthrough (half splits, access parent)")
		for _, id := range bench.ExperimentIDs {
			fmt.Printf("%-8s (see DESIGN.md experiment index)\n", id)
		}
		return
	}

	sc := bench.Quick
	if *scale == "full" {
		sc = bench.Full
	}
	if *preload > 0 {
		sc.Preload = *preload
	}
	if *ops > 0 {
		sc.Ops = *ops
	}

	if *lat || *jsonOut || *traceOut || *spansOut || *spansTo != "" {
		p := profileOpts{
			json: *jsonOut, trace: *traceOut,
			spans: *spansOut || *spansTo != "", spansPath: *spansTo, sample: *sample,
		}
		if err := latencyProfile(os.Stdout, sc, p); err != nil {
			fmt.Fprintf(os.Stderr, "latency profile: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var ids []string
	runFigures := false
	switch *exp {
	case "all":
		ids = bench.ExperimentIDs
		runFigures = true
	case "figures":
		runFigures = true
	default:
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "figures" {
				runFigures = true
				continue
			}
			if bench.Experiments[id] == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	if runFigures {
		fmt.Println("== Figures 1-4 walkthrough ==")
		if err := core.WriteFigureWalkthrough(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
	}
	for _, id := range ids {
		tb, err := bench.Experiments[id](sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		tb.Render(os.Stdout)
	}
}

// commitSweep runs the commit-path durability benchmark, prints the cells
// as a table, optionally persists the JSON trajectory (BENCH_commit.json)
// and applies the coalescing gate.
func commitSweep(w io.Writer, modesCSV, writersCSV string, ops int, outPath string, gate float64) error {
	var cfg bench.CommitConfig
	cfg.OpsPerWriter = ops
	for _, s := range strings.Split(modesCSV, ",") {
		m, err := wal.ParseDurabilityMode(s)
		if err != nil {
			return err
		}
		cfg.Modes = append(cfg.Modes, m)
	}
	for _, s := range strings.Split(writersCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -writers entry %q", s)
		}
		cfg.Writers = append(cfg.Writers, n)
	}

	rep, err := bench.RunCommit(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== commit path: %d txns/writer, force sleeps %s, %d cores, rev %q ==\n",
		rep.OpsPerWriter, time.Duration(rep.SyncDelayNS), rep.Cores, rep.GitRev)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\twriters\tcommits/s\tdevice forces\tmean force\tcommits/force\tmax batch")
	for _, r := range rep.Results {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%s\t%.1f\t%d\n",
			r.Mode, r.Writers, r.CommitsPerSec, r.DeviceForces,
			time.Duration(r.MeanForceNS).Round(time.Microsecond), r.CommitsPerForce(), r.Group.MaxBatch)
	}
	tw.Flush()

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", outPath)
	}
	if gate > 0 {
		desc, err := rep.GateCoalescing(gate)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "gate ok: %s\n", desc)
	}
	return nil
}

// loadSweep runs the bulk-load scale sweep, prints rows/s and pages-built
// per tier and optionally persists the JSON report (BENCH_scale.json).
func loadSweep(w io.Writer, keysCSV string, fill float64, outPath string) error {
	cfg := bench.ScaleConfig{Fill: fill}
	for _, s := range strings.Split(keysCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -keys entry %q", s)
		}
		cfg.Tiers = append(cfg.Tiers, n)
	}

	rep, err := bench.RunScale(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== bulk-load scale sweep: fill %.2f, page size %d, %d cores (GOMAXPROCS %d), rev %q ==\n",
		rep.Fill, rep.PageSize, rep.Cores, rep.GOMAXPROCS, rep.GitRev)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "keys\trows/s\tpages built\tchunks\theight\tfanout\tget p50\tput p50\tscan ns/key\tclean")
	for _, r := range rep.Results {
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%d\t%d\t%.1f\t%s\t%s\t%.0f\t%v\n",
			r.Keys, r.RowsPerSec, r.PagesBuilt, r.Chunks,
			r.Height, r.IndexFanout,
			time.Duration(r.GetP50NS), time.Duration(r.PutP50NS),
			r.ScanNSPerKey, r.VerifyClean)
	}
	tw.Flush()

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", outPath)
	}
	return nil
}

// skewSweep runs the skew scenario matrix, prints the cells as a table,
// optionally persists the JSON report (BENCH_skew.json) and applies the
// skew-vs-uniform throughput gate.
func skewSweep(w io.Writer, threadsCSV string, ops int, outPath string, skewFrac float64) error {
	var cfg bench.SkewConfig
	cfg.Ops = ops
	for _, s := range strings.Split(threadsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -skewthreads entry %q", s)
		}
		cfg.Goroutines = append(cfg.Goroutines, n)
	}

	rep, err := bench.RunSkew(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== skew matrix: %d keys, %d preloaded, %d ops/cell, zipf s=%.2f, %d cores (GOMAXPROCS %d) ==\n",
		rep.KeySpace, rep.Preload, rep.Ops, rep.ZipfS, rep.Cores, rep.GOMAXPROCS)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dist\tgoroutines\tfastpath\tops/s\tfastpath hits\tlatch waits")
	for _, r := range rep.Results {
		fast := "off"
		if r.AppendFastPath {
			fast = "on"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.0f\t%d\t%d\n",
			r.Dist, r.Goroutines, fast, r.OpsPerSec, r.AppendFastHits, r.LatchWaits)
	}
	tw.Flush()

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", outPath)
	}
	if skewFrac > 0 {
		desc, err := rep.GateSkewVsUniform(skewFrac)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "skew gate ok: %s\n", desc)
	}
	return nil
}

// remoteRun drives a running blinkd server with the configured connection
// count, pipeline depth and key distribution, and prints the aggregate
// throughput. Every workload generator the embedded runner supports drives
// the server unchanged; a 50/30/15/5 insert/search/delete/scan mix keeps
// all four data verbs under load.
func remoteRun(w io.Writer, addr string, conns, pipeline, ops int, distName string, txnEvery int) error {
	d, err := bench.ParseDist(distName)
	if err != nil {
		return err
	}
	cfg := bench.RemoteConfig{
		Addr:     addr,
		Conns:    conns,
		Pipeline: pipeline,
		Ops:      ops,
		TxnEvery: txnEvery,
		Spec: bench.Spec{
			Dist: d,
			Mix:  bench.Mix{Insert: 50, Search: 30, Delete: 15, Scan: 5},
		},
	}
	res, err := bench.RunRemote(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== remote: %s, dist %s, txnevery %d ==\n", addr, d, txnEvery)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "conns\tpipeline\tops\telapsed\tops/s\terrors\taborts")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%.0f\t%d\t%d\n",
		res.Conns, res.Pipeline, res.Ops,
		time.Duration(res.ElapsedMS*float64(time.Millisecond)).Round(time.Millisecond),
		res.Throughput, res.Errors, res.Aborts)
	tw.Flush()
	if res.Errors > 0 {
		return fmt.Errorf("%d unexpected error replies", res.Errors)
	}
	return nil
}

// netRun runs the embedded-vs-networked comparison (E16), prints the cells
// as a table, optionally persists the JSON report (BENCH_net.json) and
// applies the pipelining gate at 16 connections.
func netRun(w io.Writer, connsCSV, pipelineCSV string, ops int, outPath string, gate float64) error {
	cfg := bench.NetConfig{Ops: ops}
	for _, s := range strings.Split(connsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -netconns entry %q", s)
		}
		cfg.Conns = append(cfg.Conns, n)
	}
	for _, s := range strings.Split(pipelineCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -netpipeline entry %q", s)
		}
		cfg.Pipelines = append(cfg.Pipelines, n)
	}

	rep, err := bench.RunNet(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== embedded vs networked: %d keys, %d preloaded, %d ops/cell ==\n",
		rep.Config.KeySpace, rep.Config.Preload, rep.Config.Ops)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tconns\tpipeline\tops\tops/s\terrors")
	for _, r := range rep.Results {
		pipe := "-"
		if r.Mode == "net" {
			pipe = strconv.Itoa(r.Pipeline)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.0f\t%d\n",
			r.Mode, r.Conns, pipe, r.Ops, r.Throughput, r.Errors)
	}
	tw.Flush()

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", outPath)
	}
	if gate > 0 {
		desc, err := rep.GatePipeline(16, gate)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "pipeline gate ok: %s\n", desc)
	}
	return nil
}

// profileOpts selects the optional outputs of latencyProfile.
type profileOpts struct {
	json      bool   // expvar JSON snapshot
	trace     bool   // SMO trace ring dump
	spans     bool   // sample operation spans, print tail attribution
	spansPath string // write sampled spans as Chrome trace JSON here
	sample    int    // span sampling rate (1 in N)
}

// latencyProfile runs a 40/40/20 insert/search/delete mix with full
// observability enabled and reports per-class latency percentiles (preload
// excluded), optionally followed by the expvar JSON snapshot, the trace
// ring contents, and the sampled-span tail-latency attribution table.
func latencyProfile(w io.Writer, sc bench.Scale, po profileOpts) error {
	tr, err := core.New(core.Options{
		PageSize: 1024, MinFill: 0.35, Workers: 2,
		Observability: &obs.Config{
			Metrics: true, Trace: true,
			Spans: po.spans, SampleEvery: po.sample,
		},
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	spec := bench.Spec{
		KeySpace: sc.Preload * 2,
		Preload:  sc.Preload,
		Ops:      sc.Ops,
		Mix:      bench.Mix{Insert: 40, Search: 40, Delete: 20},
	}
	if err := bench.Preload(tr, spec); err != nil {
		return err
	}
	pre := tr.Registry().Snapshot()

	threads := sc.Threads[len(sc.Threads)-1]
	perG := spec.Ops / threads
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	start := time.Now()
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			errCh <- bench.Worker(tr, spec, seed, perG)
		}(int64(g) + 1)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	tr.DrainTodo()

	m := tr.Snapshot()
	fmt.Fprintf(w, "== latency profile: mix %s, %d ops, %d goroutines, %.0f ops/s ==\n",
		spec.Mix, perG*threads, threads, float64(perG*threads)/elapsed.Seconds())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "op\tcount\tmean\tp50\tp99\tp999")
	for op := obs.OpSearch; op < obs.OpCount; op++ {
		h := m.Obs.Ops[op].Delta(pre.Ops[op])
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n", op, h.Count,
			h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999))
	}
	tw.Flush()

	if po.json {
		fmt.Fprintln(w, "-- expvar snapshot --")
		if err := blinkmetrics.WriteExpvar(w, m); err != nil {
			return err
		}
	}
	if po.trace {
		evs := tr.TraceEvents()
		fmt.Fprintf(w, "-- trace ring: %d events (%d emitted, %d dropped) --\n",
			len(evs), m.Obs.TraceSeq, m.Obs.TraceDropped)
		for _, e := range evs {
			fmt.Fprintln(w, obs.FormatEvent(e))
		}
	}
	if po.spans {
		spans := tr.Spans()
		if err := obs.WriteAttribution(w, spans); err != nil {
			return err
		}
		fmt.Fprintf(w, "slow-op flight recorder: %d captures at/above %s\n",
			len(tr.SlowSpans()), time.Duration(m.Obs.SlowOpThresholdNS))
		if po.spansPath != "" {
			f, err := os.Create(po.spansPath)
			if err != nil {
				return err
			}
			if err := obs.WriteChromeTrace(f, spans); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %d spans to %s\n", len(spans), po.spansPath)
		}
	}
	return nil
}
