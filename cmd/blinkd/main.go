// Command blinkd serves a blinktree over TCP, speaking the RESP-style
// pipelined wire protocol specified in PROTOCOL.md (GET/SET/DEL/SCAN,
// BEGIN/COMMIT/ABORT, PING/INFO). A second listener (-admin) exposes the
// tree's and the server's metrics on one page (/metrics, Prometheus or
// expvar JSON), a health probe (/healthz) and the Go runtime's profiles
// (/debug/pprof/).
//
// Usage:
//
//	blinkd -addr :6380 -path /var/lib/blinkd          # durable store
//	blinkd -addr :6380 -admin :6381 -durability periodic  # ack before the force
//	blinkd -addr 127.0.0.1:0                          # volatile, test port
//	blinkbench -remote 127.0.0.1:6380                 # drive it with load
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// commands already received finish executing and their replies flush,
// open transactions abort, and the tree closes (forcing the WAL), bounded
// by -draintimeout. Exit code 0 means every completed commit is durable.
// See OPERATIONS.md ("Operating blinkd") for the runbook.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	blinktree "blinktree"
	"blinktree/internal/buildinfo"
	"blinktree/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:6380", "data-port listen address")
		admin         = flag.String("admin", "", "admin-port listen address for /metrics, /healthz and /debug/pprof/ (empty disables)")
		path          = flag.String("path", "", "directory for the durable files (pages.db, wal.log); empty runs volatile and in-memory")
		pageSize      = flag.Int("pagesize", 0, "node size in bytes (0 = default 4096)")
		cacheSize     = flag.Int("cache", 0, "buffer pool capacity in nodes (0 = default 4096)")
		durability    = flag.String("durability", "sync", "commit durability with -path: sync, periodic or async (group: deprecated spelling of sync)")
		flushInterval = flag.Duration("flushinterval", 0, "periodic/async background force period (0 = default 2ms)")
		flushBytes    = flag.Int64("flushbytes", 0, "periodic mode's unforced-byte force threshold (0 = default 256KiB)")
		maxConns      = flag.Int("maxconns", 0, "concurrent connection limit (0 = default 1024)")
		idle          = flag.Duration("idle", 0, "per-connection idle timeout; negative disables (0 = default 5m)")
		maxScan       = flag.Int("maxscan", 0, "per-SCAN record cap (0 = default 1000)")
		drainTimeout  = flag.Duration("draintimeout", 30*time.Second, "graceful-shutdown drain bound before connections are closed forcibly")
		version       = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if err := run(*addr, *admin, *path, *pageSize, *cacheSize, *durability,
		*flushInterval, *flushBytes, *maxConns, *idle, *maxScan, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "blinkd: %v\n", err)
		os.Exit(1)
	}
}

// The tree's defaults for -cache and for its maintenance workers
// (blinktree.Options.CacheSize and Workers), which blinkd does not change.
const (
	defaultCache = 4096
	workers      = 2
)

// checkPinFloor refuses a pool that the server's own load can exhaust:
// every connection inside the tree and every maintenance worker pins up to
// three frames (parent, node, sibling), and an operation that finds them
// all pinned fails with ErrPoolFull.
func checkPinFloor(cacheSize, maxConns int) error {
	if cacheSize == 0 {
		cacheSize = defaultCache
	}
	if maxConns == 0 {
		maxConns = server.DefaultMaxConns
	}
	if floor := 3 * (maxConns + workers); cacheSize < floor {
		return fmt.Errorf("-cache %d is below the pin floor 3 × (-maxconns %d + %d workers) = %d frames",
			cacheSize, maxConns, workers, floor)
	}
	return nil
}

func run(addr, admin, path string, pageSize, cacheSize int, durability string,
	flushInterval time.Duration, flushBytes int64, maxConns int,
	idle time.Duration, maxScan int, drainTimeout time.Duration) error {

	if err := checkPinFloor(cacheSize, maxConns); err != nil {
		return err
	}
	opts := blinktree.Options{
		Path:          path,
		PageSize:      pageSize,
		CacheSize:     cacheSize,
		FlushInterval: flushInterval,
		FlushBytes:    flushBytes,
		Observability: &blinktree.Observability{Metrics: true},
	}
	if path != "" {
		mode, err := blinktree.ParseDurabilityMode(durability)
		if err != nil {
			return err
		}
		opts.Durability = mode
	}
	tree, err := blinktree.Open(opts)
	if err != nil {
		return err
	}
	// The server owns the tree from here: Shutdown closes it.

	srv := server.New(tree, server.Config{
		Addr:        addr,
		MaxConns:    maxConns,
		IdleTimeout: idle,
		MaxScan:     maxScan,
	})
	// Installed before the listen banner is printed: a supervisor that
	// signals as soon as it sees the banner still gets a drain and exit 0.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := srv.Listen(); err != nil {
		tree.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "blinkd %s listening on %s", buildinfo.Version(), srv.Addr())
	if path != "" {
		fmt.Fprintf(os.Stderr, " (store %s, durability %s)", path, durability)
	} else {
		fmt.Fprint(os.Stderr, " (volatile)")
	}
	fmt.Fprintln(os.Stderr)

	var adminSrv *http.Server
	if admin != "" {
		ln, err := net.Listen("tcp", admin)
		if err != nil {
			tree.Close()
			return fmt.Errorf("admin listen: %w", err)
		}
		adminSrv = &http.Server{Handler: server.AdminHandler(srv)}
		fmt.Fprintf(os.Stderr, "blinkd admin on http://%s/metrics\n", ln.Addr())
		go adminSrv.Serve(ln)
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "blinkd: %s received, draining (bound %s)\n", s, drainTimeout)
	case err := <-serveDone:
		// Listener died without a shutdown request.
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		srv.Shutdown(ctx)
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if adminSrv != nil {
		adminSrv.Shutdown(ctx)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveDone; err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "blinkd: clean shutdown")
	return nil
}
