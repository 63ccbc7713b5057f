package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"blinktree"
	"blinktree/internal/buffer"
	"blinktree/internal/core"
	"blinktree/internal/latch"
	"blinktree/internal/lock"
	"blinktree/internal/resp"
	"blinktree/internal/server"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// Every store is durable with 4 KiB pages, the default 4096-frame pool and
// group commit: the flush policy is the same on every workload and commit.
const (
	pageSize = 4096
	bulkFill = 0.85
)

func treeOptions(dir string) blinktree.Options {
	return blinktree.Options{Path: dir, PageSize: pageSize, Durability: blinktree.DurabilityGroup}
}

// buildDataset bulk-loads keys [0, n), checkpoints and closes, leaving a
// store that reopens without redo.
func buildDataset(dir string, n uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t, err := blinktree.Open(treeOptions(dir))
	if err != nil {
		return err
	}
	var id uint64
	key, val := make([]byte, keyLen), make([]byte, valLen)
	err = t.BulkLoad(func() ([]byte, []byte, bool) {
		if id == n {
			return nil, nil, false
		}
		putKey(key, id)
		putValue(val, id, 0)
		id++
		return key, val, true
	}, bulkFill)
	if err == nil {
		err = t.Checkpoint()
	}
	if cerr := t.Close(); err == nil {
		err = cerr
	}
	return err
}

// storeBytes is the size of pages.db plus wal.log.
func storeBytes(dir string) (pages, log int64, err error) {
	for _, f := range []struct {
		name string
		size *int64
	}{{"pages.db", &pages}, {"wal.log", &log}} {
		info, err := os.Stat(filepath.Join(dir, f.name))
		if err != nil {
			return 0, 0, err
		}
		*f.size = info.Size()
	}
	return pages, log, nil
}

// counters is one reading of the public counters of every layer, from
// Tree.Snapshot() (embedded) or the blinkd admin /metrics scrape (network);
// the JSON tags are the scrape's document keys.
type counters struct {
	Stats core.Stats    `json:"stats"`
	Latch latch.Stats   `json:"latch"`
	Pool  buffer.Stats  `json:"pool"`
	Store storage.Stats `json:"store"`
	Locks lock.Stats    `json:"locks"`
	WAL   struct {
		Appends      uint64 `json:"appends"`
		Forces       uint64 `json:"forces"`
		GroupCommits uint64 `json:"group_commits"`
		GroupForces  uint64 `json:"group_forces"`
	} `json:"wal"`

	// Commands is the server's own total of commands dispatched, from INFO.
	Commands uint64 `json:"-"`
	// LogBytes is the size of wal.log.
	LogBytes int64 `json:"-"`
}

func countersOf(m core.TreeMetrics, dir string) (counters, error) {
	c := counters{Stats: m.Stats, Latch: m.Latch, Pool: m.Pool, Store: m.Store, Locks: m.Locks}
	c.WAL.Appends, c.WAL.Forces = m.LogAppends, m.LogForces
	c.WAL.GroupCommits, c.WAL.GroupForces = m.WALGroup.Commits, m.WALGroup.Forces
	var err error
	_, c.LogBytes, err = storeBytes(dir)
	return c, err
}

// target is the system under test of a measured window: an embedded tree or
// a blinkd process.
type target interface {
	// client returns the executor of one closed-loop client.
	client() (executor, error)
	counters() (counters, error)
}

// embTarget is a tree opened through the public API.
type embTarget struct {
	dir string
	t   *blinktree.Tree
}

func openEmbedded(dir string, combining blinktree.FeatureMode) (*embTarget, error) {
	opts := treeOptions(dir)
	opts.Combining = combining
	t, err := blinktree.Open(opts)
	if err != nil {
		return nil, err
	}
	return &embTarget{dir: dir, t: t}, nil
}

func (e *embTarget) client() (executor, error) { return &embExec{kv: e.t}, nil }

func (e *embTarget) counters() (counters, error) { return countersOf(e.t.Snapshot(), e.dir) }

// tracedTarget is the stack the benchmark assembles itself from public
// constructors, with its own decorators between core and the devices.
type tracedTarget struct {
	dir   string
	t     *core.Tree
	store *storage.FileStore
	dev   *wal.FileDevice
}

func openTraced(dir string, combining core.FeatureMode, tr *tracer) (*tracedTarget, error) {
	store, err := storage.OpenFileStore(filepath.Join(dir, "pages.db"), pageSize)
	if err != nil {
		return nil, err
	}
	dev, err := wal.OpenFileDevice(filepath.Join(dir, "wal.log"))
	if err != nil {
		store.Close()
		return nil, err
	}
	t, err := core.New(core.Options{
		PageSize:   pageSize,
		Store:      &tracedStore{Store: store, tr: tr},
		LogDevice:  &tracedDevice{Device: dev, tr: tr},
		Durability: wal.DurGroup,
		Combining:  combining,
	})
	if err != nil {
		dev.Close()
		store.Close()
		return nil, err
	}
	return &tracedTarget{dir: dir, t: t, store: store, dev: dev}, nil
}

func (e *tracedTarget) client() (executor, error) {
	return &embExec{kv: e.t, begin: func() (txn, error) { return e.t.Begin() }}, nil
}

func (e *tracedTarget) close() error {
	err := e.t.Close()
	if cerr := e.dev.Close(); err == nil {
		err = cerr
	}
	return err
}

// netTarget is a blinkd serving dir: a child process, or (tests under
// -short) an in-process server.
type netTarget struct {
	dir         string
	addr, admin string

	// child process; exited receives cmd.Wait's result
	cmd    *exec.Cmd
	stderr *tail
	exited chan error
	// ended is set once blinkd has been stopped or killed.
	ended bool
	// in-process server
	srv      *server.Server
	adminSrv *http.Server
	served   chan error
}

// startBlinkd serves dir and returns once PING answers. bin is the blinkd
// binary; empty runs the server in this process.
func startBlinkd(bin, dir string) (*netTarget, error) {
	n := &netTarget{dir: dir}
	var err error
	if bin == "" {
		err = n.startInProcess()
	} else {
		err = n.startChild(bin)
	}
	if err != nil {
		return nil, err
	}
	c, err := dialExec(n.addr)
	if err == nil {
		err = c.ping()
		c.close()
	}
	if err != nil {
		n.kill()
		return nil, fmt.Errorf("blinkd on %s: %w", n.addr, err)
	}
	return n, nil
}

func (n *netTarget) startInProcess() error {
	t, err := blinktree.Open(treeOptions(n.dir))
	if err != nil {
		return err
	}
	n.srv = server.New(t, server.Config{})
	if err := n.srv.Listen(); err != nil {
		t.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.srv.Shutdown(context.Background())
		return err
	}
	n.addr, n.admin = n.srv.Addr().String(), ln.Addr().String()
	n.adminSrv = &http.Server{Handler: server.AdminHandler(n.srv)}
	go n.adminSrv.Serve(ln)
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve() }()
	return nil
}

// tail is a child's stderr: it keeps the text for error reports and picks
// out the two addresses blinkd announces (data port, then admin port).
type tail struct {
	mu          sync.Mutex
	text        bytes.Buffer
	addr, admin string
	announced   chan struct{}
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.text.Write(p)
	if t.admin != "" {
		return len(p), nil
	}
	for _, line := range strings.Split(t.text.String(), "\n") {
		if _, rest, ok := strings.Cut(line, " listening on "); ok {
			t.addr, _, _ = strings.Cut(rest, " ")
		}
		if _, rest, ok := strings.Cut(line, "admin on http://"); ok && strings.Contains(rest, "/") {
			t.admin, _, _ = strings.Cut(rest, "/")
			close(t.announced)
		}
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.text.String()
}

func (n *netTarget) startChild(bin string) error {
	n.stderr = &tail{announced: make(chan struct{})}
	n.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-path", n.dir, "-pagesize", strconv.Itoa(pageSize), "-durability", "group")
	n.cmd.Stderr = n.stderr
	if err := n.cmd.Start(); err != nil {
		return err
	}
	trackChild(n.cmd.Process)
	n.exited = make(chan error, 1)
	go func() {
		n.exited <- n.cmd.Wait()
		untrackChild(n.cmd.Process)
	}()
	select {
	case <-n.stderr.announced:
		n.addr, n.admin = n.stderr.addr, n.stderr.admin
		return nil
	case err := <-n.exited:
		return fmt.Errorf("blinkd exited at start: %v\n%s", err, n.stderr)
	case <-time.After(90 * time.Second):
		n.kill()
		return fmt.Errorf("blinkd did not announce its addresses:\n%s", n.stderr)
	}
}

func (n *netTarget) client() (executor, error) { return dialExec(n.addr) }

// counters scrapes the admin port and asks INFO for the server's totals.
func (n *netTarget) counters() (counters, error) {
	var c counters
	res, err := http.Get("http://" + n.admin + "/metrics")
	if err != nil {
		return c, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return c, fmt.Errorf("admin scrape: %s", res.Status)
	}
	if err := json.NewDecoder(res.Body).Decode(&c); err != nil {
		return c, fmt.Errorf("admin scrape: %w", err)
	}
	if _, c.LogBytes, err = storeBytes(n.dir); err != nil {
		return c, err
	}
	e, err := dialExec(n.addr)
	if err != nil {
		return c, err
	}
	defer e.close()
	e.out = resp.AppendCommand(e.out[:0], []byte("INFO"))
	err = e.roundTrip(1, func(r resp.Reply) error {
		for _, line := range strings.Split(string(r.Bulk), "\r\n") {
			if v, ok := strings.CutPrefix(line, "commands_total:"); ok {
				c.Commands, _ = strconv.ParseUint(v, 10, 64)
			}
		}
		return nil
	})
	return c, err
}

// stop ends blinkd gracefully (SIGTERM) and requires a clean exit.
func (n *netTarget) stop() error {
	n.ended = true
	if n.cmd == nil {
		n.adminSrv.Close()
		if err := n.srv.Shutdown(context.Background()); err != nil {
			return err
		}
		return <-n.served
	}
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := <-n.exited; err != nil {
		return fmt.Errorf("blinkd after SIGTERM: %w\n%s", err, n.stderr)
	}
	return nil
}

// kill ends blinkd with SIGKILL: nothing is flushed on the way out. The
// in-process server cannot be killed, so there it is a shutdown. After stop
// or an earlier kill it does nothing, so callers can defer it.
func (n *netTarget) kill() {
	if n.ended {
		return
	}
	n.ended = true
	if n.cmd == nil {
		n.stop()
		return
	}
	n.cmd.Process.Kill()
	<-n.exited
}

// children are the processes to kill if the benchmark itself is told to stop.
var children struct {
	mu   sync.Mutex
	live map[*os.Process]struct{}
}

func trackChild(p *os.Process) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.live == nil {
		children.live = make(map[*os.Process]struct{})
	}
	children.live[p] = struct{}{}
}

func untrackChild(p *os.Process) {
	children.mu.Lock()
	defer children.mu.Unlock()
	delete(children.live, p)
}

// killChildren kills every live child and waits, briefly, until the
// goroutines waiting on them have seen them end.
func killChildren() {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		children.mu.Lock()
		n := len(children.live)
		for p := range children.live {
			p.Kill()
		}
		children.mu.Unlock()
		if n == 0 {
			return
		}
	}
}
