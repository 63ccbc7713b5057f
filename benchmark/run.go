package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	work   string        // scratch directory for stores and span files
	blinkd string        // blinkd binary; empty serves in this process
	seed   uint64        // per-client PRNG streams derive from it
	window time.Duration // measured window; every other phase scales with it
	scale  uint64        // dataset divisor: 1, or 100 in the package's tests
	trace  bool          // the separate traced run that yields per-layer metrics
	log    io.Writer     // progress and information lines
}

// Phase lengths, as shares of the measured window (30 s window: 5 s warm-up,
// 10 s traced replay, 1 s per unit cost). A traced run splits its window
// between the counting window, a one-client baseline and the traced replay.
func (c config) warmup() time.Duration  { return c.window / 6 }
func (c config) counts() time.Duration  { return c.window / 2 }
func (c config) single() time.Duration  { return c.window / 6 }
func (c config) traced() time.Duration  { return c.window / 3 }
func (c config) perUnit() time.Duration { return c.window / 30 }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds numbers printed for the reader and never gated.
	Info map[string]float64 `json:"info"`
}

// phase is one stretch of closed-loop load.
type phase struct {
	dur    time.Duration
	sample int // time every sample-th request
	// tr and spanLimit end a traced phase early once the tracer holds
	// spanLimit spans.
	tr        *tracer
	spanLimit int
}

// recorder is one client's measurements of one phase, in equal time slices.
type recorder struct {
	lat       []hist   // latency of timed requests, per slice
	done      []uint64 // requests completed, per slice
	attempted uint64
	failed    uint64
	firstErr  error
}

func slicesOf(dur time.Duration) int {
	return max(2, int(math.Round(dur.Seconds())))
}

func (r *recorder) run(ex executor, g *gen, p phase) {
	n := slicesOf(p.dur)
	slice := p.dur / time.Duration(n)
	r.lat, r.done = make([]hist, n), make([]uint64, n)
	start := time.Now()
	var o op
	for i := 0; ; i++ {
		if i%p.sample != 0 {
			g.next(&o)
			r.note(ex.exec(&o))
			continue
		}
		// The deadline is checked before the generator advances, so every
		// id the churn window hands out is used.
		at := time.Since(start)
		if at >= p.dur || (p.tr != nil && p.tr.count() >= p.spanLimit) {
			return
		}
		g.next(&o)
		t0 := time.Now()
		err := ex.exec(&o)
		d := time.Since(t0)
		s := min(int(at/slice), n-1)
		r.lat[s].observe(int64(d))
		r.done[s] += uint64(p.sample)
		r.note(err)
	}
}

func (r *recorder) note(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// phaseStats is a phase's outcome over all its clients.
type phaseStats struct {
	attempted, failed uint64
	firstErr          error
	samples           uint64
	// opsPerS and p99 are medians over the slices, which a short stall of
	// the shared host moves far less than a whole-window mean or tail;
	// opsPerSMean, p99Whole and p999 are the whole-window figures.
	opsPerS, opsPerSMean  float64
	p50, p99              float64   // ns
	p99Whole, p999, worst float64   // ns
	rates                 []float64 // requests per second, per slice
}

// runPhase drives one client per executor for p.dur and merges the results.
func runPhase(execs []executor, gens []*gen, p phase) phaseStats {
	recs := make([]recorder, len(execs))
	var wg sync.WaitGroup
	for i := range execs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i].run(execs[i], gens[i], p)
		}(i)
	}
	wg.Wait()

	n := slicesOf(p.dur)
	slice := p.dur / time.Duration(n)
	var st phaseStats
	var whole hist
	var rates, p99s []float64
	for s := 0; s < n; s++ {
		var h hist
		var done uint64
		for i := range recs {
			h.merge(&recs[i].lat[s])
			done += recs[i].done[s]
		}
		if h.n == 0 {
			continue
		}
		rates = append(rates, float64(done)/slice.Seconds())
		p99s = append(p99s, h.quantile(0.99))
		whole.merge(&h)
	}
	for i := range recs {
		st.attempted += recs[i].attempted
		st.failed += recs[i].failed
		if st.firstErr == nil {
			st.firstErr = recs[i].firstErr
		}
	}
	st.samples, st.rates = whole.n, rates
	st.opsPerS, st.p99 = median(rates), median(p99s)
	st.opsPerSMean = float64(st.attempted) / p.dur.Seconds()
	st.p50, st.p99Whole = whole.quantile(0.50), whole.quantile(0.99)
	st.p999, st.worst = whole.quantile(0.999), whole.quantile(1)
	return st
}

// run is the state of one workload run.
type run struct {
	cfg  config
	w    *workload
	keys uint64
	dir  string
	win  window
	gens []*gen
	res  result
	// checks collects end-of-run correctness failures.
	checks []string
	// replayFrom is the index of the traced replay's first span.
	replayFrom int
	// repliesPerFlush is replies ÷ client socket reads over a net.* run's
	// warm-up and window.
	repliesPerFlush float64
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.log, "# "+format+"\n", args...)
}

func (r *run) info(name string, v float64) { r.res.Info[name] = v }

func (r *run) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// account adds a phase's requests to the run's totals.
func (r *run) account(what string, st phaseStats) {
	r.res.Attempted += st.attempted
	r.res.Failed += st.failed
	if st.firstErr != nil {
		r.logf("%s: %d of %d requests failed, first: %v", what, st.failed, st.attempted, st.firstErr)
	}
}

// runWorkload runs one workload once and returns its metrics: the end-to-end
// set, or with cfg.trace the per-layer set.
func runWorkload(cfg config, w *workload) (result, error) {
	r := &run{cfg: cfg, w: w, keys: w.keys / cfg.scale}
	r.res = result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]metric{}, Info: map[string]float64{}}
	base, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return r.res, err
	}
	defer os.RemoveAll(base)
	r.win.tail.Store(r.keys)
	for i := 0; i < clients; i++ {
		r.gens = append(r.gens, newGen(w, cfg.seed, i, r.keys, &r.win))
	}
	if w.net {
		err = r.runNet(base)
	} else {
		err = r.runEmbedded(base)
	}
	if err != nil {
		return r.res, err
	}
	for _, c := range r.checks {
		r.logf("CHECK FAILED: %s", c)
	}
	r.res.Correct = r.res.Failed == 0 && len(r.checks) == 0
	return r.res, nil
}

// setUp builds the dataset and opens it, several times in an untraced run so
// that setup_s is a median. open's result stays open after the last set-up;
// earlier ones are closed with closeFn.
func setUp[T any](r *run, base string, open func(dir string) (T, error), closeFn func(T) error) (T, error) {
	var tgt T
	n := r.w.setups
	if r.cfg.trace {
		n = 1
	}
	var setups, recovers []float64
	for i := 0; i < n; i++ {
		r.dir = filepath.Join(base, fmt.Sprintf("store%d", i))
		t0 := time.Now()
		if err := buildDataset(r.dir, r.keys); err != nil {
			return tgt, fmt.Errorf("set-up: %w", err)
		}
		built := time.Now()
		pages, log, err := storeBytes(r.dir)
		if err != nil {
			return tgt, err
		}
		if tgt, err = open(r.dir); err != nil {
			return tgt, fmt.Errorf("set-up: open: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		recovers = append(recovers, time.Since(built).Seconds())
		r.info("space_amp", float64(pages+log)/float64(r.keys*userBytes))
		if i < n-1 {
			if err := closeFn(tgt); err != nil {
				return tgt, fmt.Errorf("set-up: close: %w", err)
			}
			if err := os.RemoveAll(r.dir); err != nil {
				return tgt, err
			}
		}
	}
	r.info("setup_s", median(setups))
	r.info("recover_s", median(recovers))
	r.logf("set-up x%d: %.3f s each (open or recover %.3f s), space_amp %.3f",
		n, median(setups), median(recovers), r.res.Info["space_amp"])
	return tgt, nil
}

// measure warms the target up, runs the measured window and returns its
// stats with the counter deltas over exactly that window.
func (r *run) measure(tgt target, execs []executor) (phaseStats, counterWindow, error) {
	window := r.cfg.window
	if r.cfg.trace {
		window = r.cfg.counts()
	}
	warm := runPhase(execs, r.gens, phase{dur: r.cfg.warmup(), sample: r.w.sample})
	r.account("warm-up", warm)
	var cw counterWindow
	var err error
	if cw.before, err = tgt.counters(); err != nil {
		return phaseStats{}, cw, err
	}
	st := runPhase(execs, r.gens, phase{dur: window, sample: r.w.sample})
	r.account("window", st)
	if cw.after, err = tgt.counters(); err != nil {
		return st, cw, err
	}
	r.logf("window %.1f s, %d clients: %.0f ops/s (mean %.0f), p50 %.2f us, p99 %.2f us (whole window %.2f), p999 %.2f us, max %.2f us, %d timed",
		window.Seconds(), len(execs), st.opsPerS, st.opsPerSMean, st.p50/1e3, st.p99/1e3,
		st.p99Whole/1e3, st.p999/1e3, st.worst/1e3, st.samples)
	r.logf("ops/s per slice: %.0f", st.rates)
	if !r.cfg.trace {
		err = r.endToEnd(st)
	}
	return st, cw, err
}

// endToEnd records the end-to-end metrics of an untraced run.
func (r *run) endToEnd(st phaseStats) error {
	r.info("ops_per_s_mean", st.opsPerSMean)
	r.info(p99Def.name, st.p99/1e3)
	r.info("p99_us_window", st.p99Whole/1e3)
	r.info("p999_us", st.p999/1e3)
	r.info("samples", float64(st.samples))
	r.info("failed_ratio", float64(st.failed)/float64(max(st.attempted, 1)))
	return r.report(endToEndDefs, map[string]float64{
		"ops_per_s": st.opsPerS,
		"p50_us":    st.p50 / 1e3,
		"setup_s":   r.res.Info["setup_s"],
		"space_amp": r.res.Info["space_amp"],
	})
}

func (r *run) runEmbedded(base string) error {
	open := func(dir string) (*embTarget, error) { return openEmbedded(dir, r.w.combining) }
	tgt, err := setUp(r, base, open, func(e *embTarget) error { return e.t.Close() })
	if err != nil {
		return err
	}
	defer tgt.t.Close() // on error paths; the checked Close is below
	execs := make([]executor, clients)
	for i := range execs {
		execs[i], _ = tgt.client()
	}
	st, delta, err := r.measure(tgt, execs)
	if err != nil {
		return err
	}
	var single phaseStats
	if r.cfg.trace {
		single = runPhase(execs[:1], r.gens[:1], phase{dur: r.cfg.single(), sample: r.w.sample})
		r.account("one client", single)
	}

	// Quiescent checks: structure, and that the live window holds exactly
	// the keys the clients left in it.
	if err := tgt.t.Verify(); err != nil {
		r.fail("Tree.Verify: %v", err)
	}
	want := r.win.tail.Load() - r.win.head.Load()
	if got, err := tgt.t.Count(nil, nil); err != nil || uint64(got) != want {
		r.fail("Count over the live window = %d (%v), want tail-head = %d", got, err, want)
	}
	if err := tgt.t.Close(); err != nil {
		return err
	}
	if !r.cfg.trace {
		return nil
	}
	tr := newTracer()
	if err := r.replayTraced(tr); err != nil {
		return err
	}
	return r.layers(st, delta, single, tr)
}

// replayTraced continues client 0's stream, alone, against the stack the
// benchmark assembles itself, recording tree.call and device spans.
func (r *run) replayTraced(tr *tracer) error {
	// Recovery at open and the fresh pool filling are not recorded.
	tr.paused.Store(true)
	tt, err := openTraced(r.dir, r.w.combining, tr)
	if err != nil {
		return err
	}
	ex, _ := tt.client()
	ex.trace(tr)
	warm := runPhase([]executor{ex}, r.gens[:1], phase{dur: r.cfg.warmup(), sample: 1})
	r.account("traced warm-up", warm)
	tr.paused.Store(false)
	r.replayFrom = tr.count()
	st := runPhase([]executor{ex}, r.gens[:1], phase{dur: r.cfg.traced(), sample: 1, tr: tr, spanLimit: maxSpans - spanSlack})
	r.account("traced replay", st)
	return tt.close()
}

func (r *run) runNet(base string) error {
	start := func(dir string) (*netTarget, error) { return startBlinkd(r.cfg.blinkd, dir) }
	// A set-up that is only timed is discarded with SIGKILL: SIGTERM this
	// soon after start can land before blinkd has installed its handler.
	discard := func(n *netTarget) error { n.kill(); return nil }
	tgt, err := setUp(r, base, start, discard)
	if err != nil {
		return err
	}
	defer tgt.kill()
	execs := make([]executor, clients)
	for i := range execs {
		if execs[i], err = tgt.client(); err != nil {
			return err
		}
		defer execs[i].close()
	}
	st, delta, err := r.measure(tgt, execs)
	if err != nil {
		return err
	}
	// +1: the INFO that closed the window counts itself.
	sent := st.attempted*r.commandsPerRequest() + 1
	if got := delta.after.Commands - delta.before.Commands; got != sent {
		r.fail("server counted %d commands over the window, clients sent %d", got, sent)
	}
	replies, reads := socketReads(execs)
	r.repliesPerFlush = float64(replies) / float64(max(reads, 1))

	var single phaseStats
	var tr *tracer
	if r.cfg.trace {
		tr = newTracer()
		single = runPhase(execs[:1], r.gens[:1], phase{dur: r.cfg.single(), sample: 1})
		r.account("one client", single)
		execs[0].trace(tr)
		traced := runPhase(execs[:1], r.gens[:1], phase{dur: r.cfg.traced(), sample: 1, tr: tr, spanLimit: maxSpans / 2})
		r.account("traced client", traced)
		execs[0].trace(nil)
	}

	if r.w.kind == kindTxn {
		if err := r.killAndRecover(tgt, execs); err != nil {
			return err
		}
	} else if err := tgt.stop(); err != nil {
		r.fail("graceful stop: %v", err)
	}
	if !r.cfg.trace {
		return nil
	}
	if err := r.replayTraced(tr); err != nil {
		return err
	}
	return r.layers(st, delta, single, tr)
}

func (r *run) commandsPerRequest() uint64 {
	if r.w.kind == kindTxn {
		return txnWrites + 2
	}
	return 1
}

// socketReads totals the connections' replies and socket reads so far.
func socketReads(execs []executor) (replies, reads uint64) {
	for _, ex := range execs {
		e := ex.(*netExec)
		replies += e.replies
		reads += e.conn.reads
	}
	return replies, reads
}

// killAndRecover checks durability of acknowledged commits: the clients keep
// committing while blinkd gets SIGKILL, blinkd restarts on the same
// directory, and every key a connection wrote must read back at the last
// version that connection saw acknowledged (or the version of the one
// transaction in flight at the kill, which may have committed). SIGKILL
// leaves the OS page cache intact, so this checks the log protocol — that an
// acknowledged commit's records were handed to the OS before the ack — not
// the device.
func (r *run) killAndRecover(tgt *netTarget, execs []executor) error {
	var wg sync.WaitGroup
	for i := range execs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var o op
			for {
				r.gens[i].next(&o)
				if execs[i].exec(&o) != nil {
					return
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	tgt.kill()
	wg.Wait()

	t0 := time.Now()
	again, err := startBlinkd(r.cfg.blinkd, r.dir)
	if err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	r.info("recover_s", time.Since(t0).Seconds())
	defer again.kill()
	reader, err := dialExec(again.addr)
	if err != nil {
		return err
	}
	defer reader.close()
	var lost, checked int
	want := make([]byte, valLen)
	for _, ex := range execs {
		e := ex.(*netExec)
		for id, ver := range e.acked {
			got, err := reader.get(id)
			if err != nil {
				return fmt.Errorf("read-back: %w", err)
			}
			checked++
			putValue(want, id, ver)
			if bytes.Equal(got, want) {
				continue
			}
			if e.inflight != nil && slices.Contains(e.inflight.ids[:], id) {
				putValue(want, id, e.inflight.ver)
				if bytes.Equal(got, want) {
					continue
				}
			}
			lost++
		}
	}
	r.logf("kill -9, restart in %.3f s, read back %d keys: acked_lost %d", r.res.Info["recover_s"], checked, lost)
	r.info("acked_lost", float64(lost))
	if lost > 0 {
		r.fail("%d acknowledged writes lost after SIGKILL", lost)
	}
	if err := again.stop(); err != nil {
		r.fail("graceful stop after recovery: %v", err)
	}
	return nil
}
