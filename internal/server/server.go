// Package server implements blinkd, the networked key/value service over
// the public blinktree API. It speaks the RESP-style pipelined wire
// protocol specified in PROTOCOL.md (codec in internal/resp): one TCP
// connection is one session with one goroutine, which parses and executes
// commands in arrival order and encodes each reply into the connection's
// write buffer; the buffer is flushed when the goroutine is about to block
// reading, so a client may pipeline any number of requests and a burst's
// replies leave in one write.
//
// Sessions hold per-connection transaction state (BEGIN/COMMIT/ABORT map
// onto blinktree.Txn), a bounded reply buffer behind which the socket's own
// flow control is the backpressure (a client that stops reading stalls its
// own connection's command stream, nothing else, and is closed after the
// idle timeout), a connection limit, idle timeouts, and graceful shutdown that
// drains in-flight work and closes the tree. The cmd/blinkd binary is a
// thin flag wrapper around this package; blinkbench -remote is the load
// generator.
package server

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	blinktree "blinktree"
	"blinktree/internal/buildinfo"
)

// Default configuration values; see Config.
const (
	// DefaultMaxConns is the default connection limit.
	DefaultMaxConns = 1024
	// DefaultIdleTimeout is the default per-connection idle timeout.
	DefaultIdleTimeout = 5 * time.Minute
	// DefaultMaxScan is the default cap on a single SCAN's record count.
	DefaultMaxScan = 1000
)

// Config parameterizes a Server. The zero value is usable: it listens on
// an OS-assigned port with the defaults above.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// MaxConns caps concurrent connections; further accepts are answered
	// with -ERR and closed (default DefaultMaxConns).
	MaxConns int
	// IdleTimeout closes a connection that sends no command, or takes none
	// of the replies waiting for it, for this long; an open transaction on
	// it is aborted. <0 disables (default DefaultIdleTimeout).
	IdleTimeout time.Duration
	// MaxScan caps the per-SCAN record count; larger requested limits are
	// clamped (default DefaultMaxScan).
	MaxScan int
	// MaxBulk caps a single request bulk string — effectively the largest
	// key or value the server will parse (default resp.DefaultMaxBulk).
	MaxBulk int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxConns == 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.MaxScan <= 0 {
		c.MaxScan = DefaultMaxScan
	}
	return c
}

// Server is a blinkd instance: one tree served over one listener. Create
// with New, start with Listen + Serve, stop with Shutdown.
type Server struct {
	tree  *blinktree.Tree
	cfg   Config
	ln    net.Listener
	quit  chan struct{}
	start time.Time

	mu    sync.Mutex
	conns map[*conn]struct{}
	wg    sync.WaitGroup

	stats serverStats
}

// New returns an unstarted server for tree. The server owns the tree from
// Serve onward: Shutdown closes it after draining connections.
func New(tree *blinktree.Tree, cfg Config) *Server {
	return &Server{
		tree:  tree,
		cfg:   cfg.withDefaults(),
		quit:  make(chan struct{}),
		conns: make(map[*conn]struct{}),
	}
}

// Tree returns the served tree (admin handlers and tests read through it).
func (s *Server) Tree() *blinktree.Tree { return s.tree }

// Listen binds the configured address. Call before Serve; Addr reports
// the bound address (useful with port 0).
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Shutdown. It returns nil after a
// graceful shutdown, or the listener's error.
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	s.start = time.Now()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.startConn(nc)
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// startConn registers a new connection and launches its goroutine, or
// rejects it when the connection limit is reached.
func (s *Server) startConn(nc net.Conn) {
	c := newConn(s, nc)
	s.mu.Lock()
	if s.draining() || len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.stats.rejected.Add(1)
		// Best-effort courtesy reply; the client may also just see the close.
		nc.SetWriteDeadline(time.Now().Add(time.Second))
		nc.Write(errMaxConns)
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.stats.accepted.Add(1)
	s.stats.open.Add(1)
	go func() {
		defer func() {
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.stats.open.Add(^uint64(0))
			s.wg.Done()
		}()
		c.serve()
	}()
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// Shutdown stops the server gracefully: it stops accepting, lets every
// connection finish what it has in flight and flush the replies, and
// finally closes the tree (making every completed operation durable).
//
// In flight, for one connection, is every command the server has already
// read off the socket into that connection's buffer when the drain starts,
// plus, while the connection has a transaction open, the commands it goes
// on to send up to that transaction's COMMIT or ABORT. A connection with
// nothing in flight is closed at once. One that stays silent inside a
// transaction is closed, and the transaction aborted, when its idle timeout
// or ctx expires, whichever is first; one whose client does not take the
// replies in flight is closed after drainFlushTimeout; when ctx expires every
// remaining connection is closed forcibly. The tree is closed in either case.
// Shutdown is idempotent; later calls return nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	select {
	case <-s.quit:
		s.mu.Unlock()
		return nil
	default:
	}
	close(s.quit)
	if s.ln != nil {
		s.ln.Close()
	}
	// Kick every blocked read and write; connections then observe
	// draining() and wind down once nothing of theirs is in flight
	// (conn.serve, conn.Read, conn.Write).
	for c := range s.conns {
		c.nc.SetDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return s.tree.Close()
}

// errMaxConns is the pre-encoded reject reply for over-limit accepts.
var errMaxConns = []byte("-ERR max connections reached\r\n")

// verbHandler executes one command (args[0] is the verb) and appends the
// reply frame to dst.
type verbHandler func(c *conn, args [][]byte, dst []byte) []byte

// verb is one dispatch-table entry.
type verb struct {
	// arity is the exact argument count, verb included.
	arity int
	// idx is the verb's dense index into the per-verb stats arrays,
	// assigned at init from the sorted verb names.
	idx int
	fn  verbHandler
}

// verbs is the server's dispatch table — the authoritative list of wire
// verbs this server implements. PROTOCOL.md must document every verb
// registered here; the repo doc lint (doc_lint_test.go) parses this
// literal and fails the build on an undocumented or phantom verb.
var verbs = map[string]*verb{
	"GET":    {arity: 2},
	"SET":    {arity: 3},
	"DEL":    {arity: 2},
	"SCAN":   {arity: 4},
	"BEGIN":  {arity: 1},
	"COMMIT": {arity: 1},
	"ABORT":  {arity: 1},
	"PING":   {arity: 1},
	"INFO":   {arity: 1},
}

// Handlers are wired here rather than in the literal above: INFO's handler
// reaches Stats, which iterates verbs, and a method reference in the
// initializer would make that an initialization cycle.
func init() {
	for name, fn := range map[string]verbHandler{
		"GET":    (*conn).cmdGet,
		"SET":    (*conn).cmdSet,
		"DEL":    (*conn).cmdDel,
		"SCAN":   (*conn).cmdScan,
		"BEGIN":  (*conn).cmdBegin,
		"COMMIT": (*conn).cmdCommit,
		"ABORT":  (*conn).cmdAbort,
		"PING":   (*conn).cmdPing,
		"INFO":   (*conn).cmdInfo,
	} {
		verbs[name].fn = fn
	}
}

// VerbNames returns the registered wire verbs in sorted order.
func VerbNames() []string { return append([]string(nil), verbNames...) }

// verbNames is the sorted verb list; verbs[name].idx indexes it.
var verbNames []string

func init() {
	for name := range verbs {
		verbNames = append(verbNames, name)
	}
	// Small fixed set: insertion sort keeps init dependency-free.
	for i := 1; i < len(verbNames); i++ {
		for j := i; j > 0 && verbNames[j] < verbNames[j-1]; j-- {
			verbNames[j], verbNames[j-1] = verbNames[j-1], verbNames[j]
		}
	}
	for i, name := range verbNames {
		verbs[name].idx = i
	}
}

// info renders the INFO payload.
func (s *Server) info() []byte {
	st := s.Stats()
	var b strings.Builder
	add := func(k string, v any) { fmt.Fprintf(&b, "%s:%v\r\n", k, v) }
	add("server", "blinkd")
	add("version", buildinfo.Version())
	add("go", buildinfo.GoVersion())
	add("uptime_seconds", strconv.FormatInt(int64(time.Since(s.start)/time.Second), 10))
	add("connections_open", st.Open)
	add("connections_accepted", st.Accepted)
	add("connections_rejected", st.Rejected)
	total := st.Unknown
	for _, n := range st.Commands {
		total += n
	}
	add("commands_total", total)
	for _, name := range verbNames {
		add("commands_"+strings.ToLower(name), st.Commands[name])
	}
	add("pipeline_depth_max", st.PipelineMaxDepth)
	add("txns_begun", st.TxnBegins)
	add("txns_committed", st.TxnCommits)
	add("txns_aborted", st.TxnAborts)
	add("tree_height", s.tree.Height())
	add("tree_pages", s.tree.Pages())
	return []byte(b.String())
}
