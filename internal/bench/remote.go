package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	blinktree "blinktree"
	"blinktree/internal/buildinfo"
	"blinktree/internal/resp"
	"blinktree/internal/server"
)

// RemoteConfig parameterizes a networked load run against a blinkd server
// (blinkbench -remote). Each connection is one worker goroutine with its
// own resp.Client and its own deterministic Gen, mirroring the embedded
// runner's worker model.
type RemoteConfig struct {
	// Addr is the server's data port ("host:port").
	Addr string
	// Conns is the number of concurrent client connections (default 4).
	Conns int
	// Pipeline is the number of commands each connection keeps in flight
	// before reading replies; 1 means strict request/response (default 1).
	Pipeline int
	// Ops is the total measured operations across all connections
	// (default 10000).
	Ops int
	// Spec shapes the workload (key space, mix, distribution). Preload runs
	// over connection 0 before measurement when Spec.Preload > 0.
	Spec Spec
	// TxnEvery, when > 0, wraps every TxnEvery'th operation in
	// BEGIN ... COMMIT so the transaction verbs see load too.
	TxnEvery int
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.Conns == 0 {
		c.Conns = 4
	}
	if c.Pipeline < 1 {
		c.Pipeline = 1
	}
	if c.Ops == 0 {
		c.Ops = 10000
	}
	c.Spec = c.Spec.withDefaults()
	return c
}

// RemoteResult is one measured networked run.
type RemoteResult struct {
	Conns      int     `json:"conns"`
	Pipeline   int     `json:"pipeline"`
	Ops        int     `json:"ops"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Throughput float64 `json:"ops_per_sec"`
	// Errors counts unexpected error replies; Aborts counts -ABORTED
	// commit outcomes (expected under contention, retried as no-ops).
	Errors uint64 `json:"errors"`
	Aborts uint64 `json:"aborts"`
}

// RunRemote drives a running blinkd server with cfg.Conns pipelining
// connections and returns the aggregate throughput. It PINGs each
// connection before measuring and reads INFO once afterwards, so a smoke
// run exercises every wire verb the generator's mix covers plus the
// session verbs.
func RunRemote(cfg RemoteConfig) (RemoteResult, error) {
	cfg = cfg.withDefaults()

	clients := make([]*resp.Client, cfg.Conns)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range clients {
		c, err := resp.DialTimeout(cfg.Addr, 10*time.Second)
		if err != nil {
			return RemoteResult{}, fmt.Errorf("dial %s: %w", cfg.Addr, err)
		}
		clients[i] = c
		if err := c.Ping(); err != nil {
			return RemoteResult{}, fmt.Errorf("ping: %w", err)
		}
	}

	if cfg.Spec.Preload > 0 {
		if err := remotePreload(clients[0], cfg.Spec); err != nil {
			return RemoteResult{}, fmt.Errorf("preload: %w", err)
		}
	}

	perConn := cfg.Ops / cfg.Conns
	var wg sync.WaitGroup
	type outcome struct {
		errors, aborts uint64
		err            error
	}
	outcomes := make([]outcome, cfg.Conns)
	start := time.Now()
	for i := range clients {
		wspec := cfg.Spec
		if cfg.Spec.Dist == SeqAppend {
			wspec.SeqOffset = cfg.Spec.SeqOffset + i*cfg.Spec.SeqStride
			wspec.SeqStride = cfg.Spec.SeqStride * cfg.Conns
		}
		wg.Add(1)
		go func(i int, wspec Spec) {
			defer wg.Done()
			e, a, err := remoteWorker(clients[i], wspec, cfg.Spec.Seed+int64(i)+1, perConn, cfg.Pipeline, cfg.TxnEvery)
			outcomes[i] = outcome{errors: e, aborts: a, err: err}
		}(i, wspec)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := RemoteResult{
		Conns:      cfg.Conns,
		Pipeline:   cfg.Pipeline,
		Ops:        perConn * cfg.Conns,
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
		Throughput: float64(perConn*cfg.Conns) / elapsed.Seconds(),
	}
	for _, o := range outcomes {
		if o.err != nil {
			return res, o.err
		}
		res.Errors += o.errors
		res.Aborts += o.aborts
	}

	// One INFO round trip closes the smoke loop over the session verbs.
	if rep, err := clients[0].DoStr("INFO"); err != nil {
		return res, fmt.Errorf("info: %w", err)
	} else if rep.IsError() {
		return res, rep.Err()
	}
	return res, nil
}

// remotePreload inserts spec.Preload sequential records over one pipelined
// connection.
func remotePreload(c *resp.Client, spec Spec) error {
	g := NewGen(spec, 0)
	const window = 256
	for i := 0; i < spec.Preload; i++ {
		if err := c.Send([]byte("SET"), Key(i%spec.KeySpace), g.Value()); err != nil {
			return err
		}
		if c.Pending() >= window {
			if err := drainReplies(c, window/2, nil, nil); err != nil {
				return err
			}
		}
	}
	return drainReplies(c, 0, nil, nil)
}

// remoteWorker runs n operations from a fresh generator over one
// connection, keeping up to window commands in flight.
func remoteWorker(c *resp.Client, spec Spec, seed int64, n, window, txnEvery int) (errCount, aborts uint64, err error) {
	g := NewGen(spec, seed)
	scanLimit := []byte(fmt.Sprintf("%d", g.ScanLen()))
	for i := 0; i < n; i++ {
		op := g.Next()
		k := Key(op.K)
		inTxn := txnEvery > 0 && i%txnEvery == 0
		if inTxn {
			if err := c.SendStr("BEGIN"); err != nil {
				return errCount, aborts, err
			}
		}
		var sendErr error
		switch op.Kind {
		case OpInsert:
			sendErr = c.Send([]byte("SET"), k, g.Value())
		case OpSearch:
			sendErr = c.Send([]byte("GET"), k)
		case OpDelete:
			sendErr = c.Send([]byte("DEL"), k)
		case OpScan:
			sendErr = c.Send([]byte("SCAN"), k, nil, scanLimit)
		case OpModify:
			if sendErr = c.Send([]byte("DEL"), k); sendErr == nil {
				sendErr = c.Send([]byte("SET"), k, g.Value())
			}
		}
		if sendErr == nil && inTxn {
			sendErr = c.SendStr("COMMIT")
		}
		if sendErr != nil {
			return errCount, aborts, sendErr
		}
		if c.Pending() >= window {
			if err := drainReplies(c, window/2, &errCount, &aborts); err != nil {
				return errCount, aborts, err
			}
		}
	}
	return errCount, aborts, drainReplies(c, 0, &errCount, &aborts)
}

// drainReplies flushes queued commands and reads replies until at most
// keep remain in flight, tallying unexpected error replies. A -ABORTED
// commit counts as an abort, not an error; -TXN after an aborted
// transaction's COMMIT cannot occur here because the server clears the
// session transaction when it reports the abort.
func drainReplies(c *resp.Client, keep int, errCount, aborts *uint64) error {
	if err := c.Flush(); err != nil {
		return err
	}
	for c.Pending() > keep {
		rep, err := c.Recv()
		if err != nil {
			return err
		}
		if rep.IsError() {
			switch rep.ErrorCode() {
			case "ABORTED":
				if aborts != nil {
					*aborts++
				}
			default:
				if errCount != nil {
					*errCount++
				}
			}
		}
	}
	return nil
}

// NetConfig parameterizes the E16 embedded-vs-networked comparison
// (blinkbench -net). Both sides run volatile (in-memory, no WAL) trees so
// the delta isolates the network layer: protocol parsing, the per-session
// goroutine, and round trips versus pipelining.
type NetConfig struct {
	// Conns are the connection counts to sweep (default 1, 4, 16, 64); the
	// embedded baseline runs the same counts as goroutines.
	Conns []int `json:"conns"`
	// Pipelines are the pipeline depths to sweep per connection count
	// (default 1, 32). Depth 1 pays one round trip per op.
	Pipelines []int `json:"pipelines"`
	// Ops is the measured operation count per cell (default 20000).
	Ops int `json:"ops"`
	// KeySpace and Preload shape the tree (defaults 50000 / 25000).
	KeySpace int `json:"key_space"`
	Preload  int `json:"preload"`
	// Seed is the base workload seed.
	Seed int64 `json:"seed"`
}

func (c NetConfig) withDefaults() NetConfig {
	if len(c.Conns) == 0 {
		c.Conns = []int{1, 4, 16, 64}
	}
	if len(c.Pipelines) == 0 {
		c.Pipelines = []int{1, 32}
	}
	if c.Ops == 0 {
		c.Ops = 20000
	}
	if c.KeySpace == 0 {
		c.KeySpace = 50000
	}
	if c.Preload == 0 {
		c.Preload = c.KeySpace / 2
	}
	return c
}

// NetResult is one cell of the embedded-vs-networked comparison. Mode is
// "embedded" (direct API calls, Conns goroutines, Pipeline 0) or "net"
// (TCP connections at the given pipeline depth).
type NetResult struct {
	Mode       string  `json:"mode"`
	Conns      int     `json:"conns"`
	Pipeline   int     `json:"pipeline"`
	Ops        int     `json:"ops"`
	Throughput float64 `json:"ops_per_sec"`
	Errors     uint64  `json:"errors"`
}

// NetReport is the persisted result set of the E16 comparison
// (BENCH_net.json), in the repo's standard report shape: where it was
// measured, the effective config restated, and one row per cell.
type NetReport struct {
	// Cores, GOMAXPROCS and GitRev say where the sweep was measured: the
	// host's CPU count, the scheduler's, and the VCS revision of the binary
	// ("" when not stamped, e.g. under go run).
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitRev     string `json:"git_rev"`

	Config  NetConfig   `json:"config"`
	Results []NetResult `json:"results"`
}

// RunNet runs the E16 comparison: an embedded baseline at each concurrency,
// then an in-process blinkd server driven over loopback TCP at each
// connection count x pipeline depth. The workload is a uniform 50/50
// insert/search mix on both sides.
func RunNet(cfg NetConfig) (*NetReport, error) {
	cfg = cfg.withDefaults()
	rep := &NetReport{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitRev:     buildinfo.Revision(),
		Config:     cfg,
	}
	spec := Spec{
		KeySpace: cfg.KeySpace,
		Preload:  cfg.Preload,
		Mix:      Mix{Insert: 50, Search: 50},
		Seed:     cfg.Seed,
	}

	for _, conns := range cfg.Conns {
		res, err := runNetEmbedded(spec, conns, cfg.Ops)
		if err != nil {
			return nil, fmt.Errorf("embedded %d goroutines: %w", conns, err)
		}
		rep.Results = append(rep.Results, res)
	}

	for _, conns := range cfg.Conns {
		for _, pipe := range cfg.Pipelines {
			res, err := runNetCell(spec, conns, pipe, cfg.Ops)
			if err != nil {
				return nil, fmt.Errorf("net %d conns pipeline %d: %w", conns, pipe, err)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}

// runNetEmbedded measures the same workload through direct blinktree API
// calls — the zero-network baseline the server cells are compared against.
func runNetEmbedded(spec Spec, goroutines, ops int) (NetResult, error) {
	spec = spec.withDefaults()
	tree, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		return NetResult{}, err
	}
	defer tree.Close()
	g := NewGen(spec, 0)
	for i := 0; i < spec.Preload; i++ {
		if err := tree.Put(Key(i%spec.KeySpace), g.Value()); err != nil {
			return NetResult{}, err
		}
	}

	perG := ops / goroutines
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g := NewGen(spec, seed)
			for i := 0; i < perG; i++ {
				op := g.Next()
				k := Key(op.K)
				var err error
				switch op.Kind {
				case OpInsert:
					err = tree.Put(k, g.Value())
				case OpSearch:
					if _, err = tree.Get(k); err == blinktree.ErrKeyNotFound {
						err = nil
					}
				}
				if err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(spec.Seed + int64(w) + 1)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return NetResult{}, err
		}
	}
	return NetResult{
		Mode:       "embedded",
		Conns:      goroutines,
		Ops:        perG * goroutines,
		Throughput: float64(perG*goroutines) / elapsed.Seconds(),
	}, nil
}

// runNetCell starts a fresh in-process server over loopback, preloads it,
// and measures one connection-count x pipeline-depth cell.
func runNetCell(spec Spec, conns, pipeline, ops int) (NetResult, error) {
	tree, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		return NetResult{}, err
	}
	srv := server.New(tree, server.Config{})
	if err := srv.Listen(); err != nil {
		tree.Close()
		return NetResult{}, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}()

	rr, err := RunRemote(RemoteConfig{
		Addr:     srv.Addr().String(),
		Conns:    conns,
		Pipeline: pipeline,
		Ops:      ops,
		Spec:     spec,
	})
	if err != nil {
		return NetResult{}, err
	}
	return NetResult{
		Mode:       "net",
		Conns:      conns,
		Pipeline:   pipeline,
		Ops:        rr.Ops,
		Throughput: rr.Throughput,
		Errors:     rr.Errors,
	}, nil
}

// Lookup returns the cell for (mode, conns, pipeline), nil when absent.
func (r *NetReport) Lookup(mode string, conns, pipeline int) *NetResult {
	for i := range r.Results {
		c := &r.Results[i]
		if c.Mode == mode && c.Conns == conns && c.Pipeline == pipeline {
			return c
		}
	}
	return nil
}

// MaxConns returns the largest swept connection count.
func (r *NetReport) MaxConns() int {
	m := 0
	for _, c := range r.Config.Conns {
		if c > m {
			m = c
		}
	}
	return m
}

// GatePipeline checks that pipelined throughput at the given connection
// count is at least factor x the unpipelined (depth-1) throughput; the
// deepest swept pipeline is compared. It returns a description of the
// passing comparison, or an error describing the miss.
func (r *NetReport) GatePipeline(conns int, factor float64) (string, error) {
	deepest := 0
	for _, p := range r.Config.Pipelines {
		if p > deepest {
			deepest = p
		}
	}
	base := r.Lookup("net", conns, 1)
	piped := r.Lookup("net", conns, deepest)
	if base == nil || piped == nil {
		return "", fmt.Errorf("pipeline gate: missing cells at %d conns (have depth-1 %v, depth-%d %v)",
			conns, base != nil, deepest, piped != nil)
	}
	if piped.Throughput < factor*base.Throughput {
		return "", fmt.Errorf("pipeline gate: depth-%d %.0f ops/s < %.1fx depth-1 %.0f ops/s at %d conns",
			deepest, piped.Throughput, factor, base.Throughput, conns)
	}
	return fmt.Sprintf("depth-%d %.0f ops/s >= %.1fx depth-1 %.0f ops/s at %d conns",
		deepest, piped.Throughput, factor, base.Throughput, conns), nil
}

// WriteJSON writes the report as indented JSON (BENCH_net.json).
func (r *NetReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadNetReport loads a report written by WriteJSON.
func ReadNetReport(path string) (*NetReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r NetReport
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
