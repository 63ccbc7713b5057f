package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	blinktree "blinktree"
	"blinktree/internal/resp"
)

// countingListener counts, over every connection it accepts, the server's
// socket writes and the reads that returned data.
type countingListener struct {
	net.Listener
	writes, dataReads atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// CloseWrite keeps the half-close a finished session ends with (conn.linger).
func (c *countingConn) CloseWrite() error { return c.Conn.(*net.TCPConn).CloseWrite() }

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.l.dataReads.Add(1)
	}
	return n, err
}

// listen binds srv and puts a countingListener around its listener.
func listen(t testing.TB, srv *Server) {
	t.Helper()
	if err := srv.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv.ln = &countingListener{Listener: srv.ln}
}

// startServer launches a server over a fresh volatile tree and returns it
// with its address. Shutdown (which closes the tree) runs in cleanup unless
// the test already shut it down.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	tree, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := New(tree, cfg)
	listen(t, srv)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && err != blinktree.ErrClosed {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, srv.Addr().String()
}

func dial(t *testing.T, addr string) *resp.Client {
	t.Helper()
	c, err := resp.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	c.SetDeadline(time.Now().Add(30 * time.Second))
	return c
}

// dialRaw connects a bare socket, for tests that decide what goes into each
// segment or that never read. It is closed in cleanup.
func dialRaw(t testing.TB, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	t.Cleanup(func() { nc.Close() })
	return nc
}

// command encodes one command.
func command(args ...string) []byte {
	b := make([][]byte, len(args))
	for i, a := range args {
		b[i] = []byte(a)
	}
	return resp.AppendCommand(nil, b...)
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestAllVerbs drives every registered wire verb through one connection and
// checks each reply shape against PROTOCOL.md.
func TestAllVerbs(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("PING: %v", err)
	}
	if err := c.Set([]byte("alpha"), []byte("1")); err != nil {
		t.Fatalf("SET: %v", err)
	}
	if err := c.Set([]byte("beta"), []byte("2")); err != nil {
		t.Fatalf("SET: %v", err)
	}
	val, ok, err := c.Get([]byte("alpha"))
	if err != nil || !ok || string(val) != "1" {
		t.Fatalf("GET alpha = %q, %v, %v", val, ok, err)
	}
	if _, ok, err := c.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("GET missing: ok=%v err=%v", ok, err)
	}

	// SCAN over [alpha, zzz) limited to 10: both keys, key/value flattened.
	rep, err := c.DoStr("SCAN", "alpha", "zzz", "10")
	if err != nil {
		t.Fatalf("SCAN: %v", err)
	}
	if rep.Kind != resp.KindArray || len(rep.Array) != 4 {
		t.Fatalf("SCAN reply = %+v", rep)
	}
	if string(rep.Array[0].Bulk) != "alpha" || string(rep.Array[2].Bulk) != "beta" {
		t.Fatalf("SCAN keys = %q, %q", rep.Array[0].Bulk, rep.Array[2].Bulk)
	}

	// Transaction verbs: BEGIN, transactional SET, COMMIT.
	for _, step := range []struct{ cmd, want string }{
		{"BEGIN", "OK"},
	} {
		rep, err := c.DoStr(step.cmd)
		if err != nil || rep.Str != step.want {
			t.Fatalf("%s = %+v, %v", step.cmd, rep, err)
		}
	}
	if err := c.Set([]byte("gamma"), []byte("3")); err != nil {
		t.Fatalf("txn SET: %v", err)
	}
	if rep, err := c.DoStr("COMMIT"); err != nil || rep.Str != "OK" {
		t.Fatalf("COMMIT = %+v, %v", rep, err)
	}
	if _, ok, _ := c.Get([]byte("gamma")); !ok {
		t.Fatal("committed key gamma missing")
	}

	// ABORT rolls back.
	if rep, err := c.DoStr("BEGIN"); err != nil || rep.Str != "OK" {
		t.Fatalf("BEGIN = %+v, %v", rep, err)
	}
	if err := c.Set([]byte("delta"), []byte("4")); err != nil {
		t.Fatalf("txn SET: %v", err)
	}
	if rep, err := c.DoStr("ABORT"); err != nil || rep.Str != "OK" {
		t.Fatalf("ABORT = %+v, %v", rep, err)
	}
	if _, ok, _ := c.Get([]byte("delta")); ok {
		t.Fatal("aborted key delta visible")
	}

	// DEL: 1 then 0.
	if deleted, err := c.Del([]byte("alpha")); err != nil || !deleted {
		t.Fatalf("DEL alpha = %v, %v", deleted, err)
	}
	if deleted, err := c.Del([]byte("alpha")); err != nil || deleted {
		t.Fatalf("DEL alpha again = %v, %v", deleted, err)
	}

	// INFO is a bulk of key:value lines.
	rep, err = c.DoStr("INFO")
	if err != nil || rep.Kind != resp.KindBulk {
		t.Fatalf("INFO = %+v, %v", rep, err)
	}
	info := string(rep.Bulk)
	for _, want := range []string{"server:blinkd", "commands_get:", "txns_committed:1", "tree_height:"} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q:\n%s", want, info)
		}
	}
}

// TestErrorReplies checks the wire error codes: ERR for unknown verbs and
// arity misuse, TXN for transaction-state misuse.
func TestErrorReplies(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	defer c.Close()

	cases := []struct {
		args []string
		code string
	}{
		{[]string{"NOPE"}, "ERR"},
		{[]string{"GET"}, "ERR"},
		{[]string{"SET", "k"}, "ERR"},
		{[]string{"PING", "x"}, "ERR"},
		{[]string{"COMMIT"}, "TXN"},
		{[]string{"ABORT"}, "TXN"},
		{[]string{"SCAN", "a", "b", "-5"}, "ERR"},
		{[]string{"SET", "", "v"}, "ERR"}, // empty key rejected by the tree
	}
	for _, tc := range cases {
		rep, err := c.DoStr(tc.args...)
		if err != nil {
			t.Fatalf("%v: transport error %v", tc.args, err)
		}
		if !rep.IsError() || rep.ErrorCode() != tc.code {
			t.Errorf("%v = %+v, want -%s", tc.args, rep, tc.code)
		}
	}

	// Double BEGIN is a TXN error and leaves the first transaction usable.
	if rep, _ := c.DoStr("BEGIN"); rep.Str != "OK" {
		t.Fatalf("BEGIN = %+v", rep)
	}
	if rep, _ := c.DoStr("BEGIN"); !rep.IsError() || rep.ErrorCode() != "TXN" {
		t.Fatalf("second BEGIN = %+v", rep)
	}
	if rep, _ := c.DoStr("ABORT"); rep.Str != "OK" {
		t.Fatalf("ABORT after double BEGIN = %+v", rep)
	}
}

// TestPipelinedOrdering floods one connection with interleaved SET/GET
// pipelines and checks that replies come back exactly in request order. The
// GET replies add up to several times the 64 KiB reply buffer, so the buffer
// overflows to the socket mid-burst more than once.
func TestPipelinedOrdering(t *testing.T) {
	_, addr := startServer(t, Config{})
	nc := dialRaw(t, addr)

	const n = 500
	pad := strings.Repeat("x", 600) // n GET replies of 600 B: > 4 reply buffers
	var burst []byte
	for i := 0; i < n; i++ {
		burst = append(burst, command("SET", fmt.Sprintf("k%04d", i), fmt.Sprintf("v%04d", i)+pad)...)
		burst = append(burst, command("GET", fmt.Sprintf("k%04d", i))...)
	}
	// Sent from a second goroutine: the server stops reading while the client
	// takes no replies, so writing everything before reading anything could
	// block both sides.
	sent := make(chan error, 1)
	go func() {
		_, err := nc.Write(burst)
		sent <- err
	}()
	br := bufio.NewReader(nc)
	for i := 0; i < n; i++ {
		rep, err := resp.ReadReply(br, 0)
		if err != nil {
			t.Fatalf("recv SET reply %d: %v", i, err)
		}
		if rep.Kind != resp.KindSimple || rep.Str != "OK" {
			t.Fatalf("SET reply %d = %+v", i, rep)
		}
		rep, err = resp.ReadReply(br, 0)
		if err != nil {
			t.Fatalf("recv GET reply %d: %v", i, err)
		}
		if want := fmt.Sprintf("v%04d", i) + pad; string(rep.Bulk) != want {
			t.Fatalf("GET reply %d = %.8q..., want %.8q... (reply order violated)", i, rep.Bulk, want)
		}
	}
	if err := <-sent; err != nil {
		t.Fatalf("send: %v", err)
	}
}

// TestOneFlushPerBurst counts the server's socket writes: the replies to
// commands that arrived together leave together.
func TestOneFlushPerBurst(t *testing.T) {
	srv, addr := startServer(t, Config{})
	ln := srv.ln.(*countingListener)
	nc := dialRaw(t, addr)
	br := bufio.NewReader(nc)
	recv := func(n int) (payload int) {
		t.Helper()
		for i := 0; i < n; i++ {
			rep, err := resp.ReadReply(br, 0)
			if err != nil || rep.IsError() {
				t.Fatalf("reply %d of %d = %+v, %v", i, n, rep, err)
			}
			payload += len(rep.Bulk)
		}
		return payload
	}

	// A transaction sent in one segment: six replies, one write.
	burst := command("BEGIN")
	for i := 0; i < 4; i++ {
		burst = append(burst, command("SET", fmt.Sprintf("k%d", i), strings.Repeat("v", 300))...)
	}
	burst = append(burst, command("COMMIT")...)
	if _, err := nc.Write(burst); err != nil {
		t.Fatalf("write: %v", err)
	}
	recv(6)
	if got := ln.writes.Load(); got != 1 {
		t.Fatalf("BEGIN, 4 SET, COMMIT in one segment: %d server writes, want 1", got)
	}

	// 1 000 pipelined GETs, more reply bytes than the buffer holds: a write
	// each time the buffer fills, and one for the rest each time the server
	// ran out of input — once, when the burst arrived in one read.
	const gets = 1000
	writes, reads := ln.writes.Load(), ln.dataReads.Load()
	if _, err := nc.Write(bytes.Repeat(command("GET", "k0"), gets)); err != nil {
		t.Fatalf("write: %v", err)
	}
	replyBytes := recv(gets) + gets*len("$300\r\n\r\n")
	writes, reads = ln.writes.Load()-writes, ln.dataReads.Load()-reads
	if limit := int64(replyBytes/replyBuffer) + reads; writes > limit {
		t.Fatalf("%d GETs, %d reply bytes, read in %d pieces: %d server writes, want <= %d",
			gets, replyBytes, reads, writes, limit)
	}
	// One depth sample per flush before blocking: the six replies, then the
	// GETs' in as many samples as reads.
	if st := srv.Stats(); st.PipelineDepthSum != 6+gets || st.PipelineDepthObs > uint64(1+reads) {
		t.Fatalf("pipeline depth: sum %d over %d samples, want %d over <= %d",
			st.PipelineDepthSum, st.PipelineDepthObs, 6+gets, 1+reads)
	}
}

// TestPartialCommandFlushesEarlierReplies: the flush is keyed on "about to
// block on the socket", not on "no complete command buffered", so a reply is
// never held back by the first half of the next command.
func TestPartialCommandFlushesEarlierReplies(t *testing.T) {
	_, addr := startServer(t, Config{})
	nc := dialRaw(t, addr)
	set := command("SET", "k", "value")
	if _, err := nc.Write(append(command("PING"), set[:len(set)/2]...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	br := bufio.NewReader(nc)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rep, err := resp.ReadReply(br, 0); err != nil || rep.Str != "PONG" {
		t.Fatalf("PING reply with half a SET behind it = %+v, %v", rep, err)
	}
	if _, err := nc.Write(set[len(set)/2:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	if rep, err := resp.ReadReply(br, 0); err != nil || rep.Str != "OK" {
		t.Fatalf("SET reply = %+v, %v", rep, err)
	}
}

// floodUnread stores 400 records of 1.9 KB, then, on a second connection,
// sends prefix and 30 SCANs of them all — one small segment, so the server
// has read every command and nothing is left unread in its socket — and
// reads no reply: 22 MB, far more than the socket buffers of both ends hold.
// It returns that connection once the server has stopped executing.
func floodUnread(t *testing.T, srv *Server, addr string, prefix []byte) net.Conn {
	t.Helper()
	c := dial(t, addr)
	const records, scans = 400, 30
	for i := 0; i < records; i++ {
		c.SendStr("SET", fmt.Sprintf("r%03d", i), strings.Repeat("v", 1900))
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < records; i++ {
		if rep, err := c.Recv(); err != nil || rep.IsError() {
			t.Fatalf("SET %d = %+v, %v", i, rep, err)
		}
	}
	c.Close()

	nc := dialRaw(t, addr)
	burst := append(prefix, bytes.Repeat(command("SCAN", "r", "", "1000"), scans)...)
	if _, err := nc.Write(burst); err != nil {
		t.Fatalf("write: %v", err)
	}
	var seen uint64
	var since time.Time
	waitFor(t, "the server to block on the unread replies", func() bool {
		if n := srv.CommandCount("SCAN"); n != seen || n == 0 {
			seen, since = n, time.Now()
		}
		return time.Since(since) > 100*time.Millisecond
	})
	if seen == scans {
		t.Fatal("the flood fitted the socket buffers: nothing stalled")
	}
	return nc
}

// TestStalledReaderIsClosed: a client that stops reading is closed after the
// idle timeout like one that stops sending, and its transaction's record
// locks go with it.
func TestStalledReaderIsClosed(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 300 * time.Millisecond})
	floodUnread(t, srv, addr, append(command("BEGIN"), command("SET", "k", "dirty")...))
	waitFor(t, "the stalled connection to be closed", func() bool {
		st := srv.Stats()
		return st.IdleClosed == 1 && st.DisconnectAborts == 1 && st.Open == 0
	})
	c := dial(t, addr)
	defer c.Close()
	if err := c.Set([]byte("k"), []byte("clean")); err != nil {
		t.Fatalf("SET of the key the stalled transaction had locked: %v", err)
	}
}

// drainStalled starts a server with the default five-minute idle timeout,
// stalls one connection on unread replies (see floodUnread), calls Shutdown
// with a 20 s bound and returns the stalled socket and Shutdown's result.
func drainStalled(t *testing.T, prefix []byte) (*Server, net.Conn, <-chan error) {
	t.Helper()
	tree, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := New(tree, Config{})
	listen(t, srv)
	go srv.Serve()
	nc := floodUnread(t, srv, srv.Addr().String(), prefix)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	return srv, nc, done
}

// TestShutdownWithStalledReader: Shutdown's kick reaches a connection blocked
// writing, so a client that does not read cannot hold the drain to ctx.
func TestShutdownWithStalledReader(t *testing.T) {
	start := time.Now()
	srv, _, done := drainStalled(t, command("BEGIN"))
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("drain took %v with a stalled client: held to ctx", took)
	}
	if st := srv.Stats(); st.DisconnectAborts != 1 || st.IdleClosed != 0 {
		t.Fatalf("after drain: %d disconnect aborts, %d idle closes, want 1 and 0", st.DisconnectAborts, st.IdleClosed)
	}
}

// TestShutdownResumesInterruptedFlush: the kick that interrupts a blocked
// write does not cost a client that is merely slow its replies. Every
// command the server executed, before the kick and after, is answered.
func TestShutdownResumesInterruptedFlush(t *testing.T) {
	srv, nc, done := drainStalled(t, nil)
	br, replies := bufio.NewReader(nc), uint64(0)
	for {
		rep, err := resp.ReadReply(br, 0)
		if err == io.EOF {
			break
		}
		if err != nil || rep.IsError() {
			t.Fatalf("reply %d = %+v, %v", replies, rep, err)
		}
		replies++
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if want := srv.CommandCount("SCAN"); replies != want {
		t.Fatalf("%d replies reached the client, %d commands were executed", replies, want)
	}
}

// TestShutdownMidPipelineResetsNoReply: a drain stops a connection while its
// client is still sending a 20 000-GET pipeline. The server must not close
// over the unread rest of it — the kernel would answer with RST and could
// destroy replies already sent — so every reply it wrote reaches the
// client, followed by a clean EOF, never "connection reset by peer". The
// 1 KB value makes the replies outgrow the socket buffers, so the drain
// starts with most of the pipeline neither executed nor read; the 12-byte
// key makes a GET 32 bytes, so a full read buffer ends on a command boundary
// and the drain stops there instead of reading on for the rest of a split
// command.
func TestShutdownMidPipelineResetsNoReply(t *testing.T) {
	tree, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	val := bytes.Repeat([]byte("v"), 1000)
	const key = "pipelinekey0"
	if err := tree.Put([]byte(key), val); err != nil {
		t.Fatal(err)
	}
	srv := New(tree, Config{})
	listen(t, srv)
	go srv.Serve()
	nc := dialRaw(t, srv.Addr().String())

	const n = 20000
	wrote := make(chan struct{})
	go func() { // the client's sender: stops with an error once the server is gone
		defer close(wrote)
		bw := bufio.NewWriter(nc)
		for i := 0; i < n; i++ {
			if _, err := bw.Write(command("GET", key)); err != nil {
				return
			}
		}
		if bw.Flush() == nil {
			nc.(*net.TCPConn).CloseWrite()
		}
	}()
	waitFor(t, "the pipeline to start", func() bool { return srv.CommandCount("GET") > 0 })
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	waitFor(t, "the drain to start", srv.draining)

	br, replies := bufio.NewReader(nc), uint64(0)
	for {
		rep, err := resp.ReadReply(br, 0)
		if err == io.EOF {
			break
		}
		if err != nil || !bytes.Equal(rep.Bulk, val) {
			t.Fatalf("reply %d = %.20q, %v", replies, rep.Bulk, err)
		}
		replies++
	}
	<-wrote
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := srv.CommandCount("GET"); replies != got || got == n {
		t.Fatalf("%d replies read, %d GETs executed of %d sent; want every executed one read, and a drain mid-pipeline", replies, got, n)
	}
	t.Logf("%d of %d GETs executed and answered", replies, n)
}

// kickOnceConn is a server-side socket on which Shutdown's kick lands right
// after the first read deadline the connection sets: that deadline is at
// once moved into the past, as Shutdown's SetDeadline(time.Now()) does.
type kickOnceConn struct {
	*net.TCPConn
	kicked bool
}

func (c *kickOnceConn) SetReadDeadline(at time.Time) error {
	err := c.TCPConn.SetReadDeadline(at)
	if !c.kicked {
		c.kicked = true
		c.TCPConn.SetDeadline(time.Now())
	}
	return err
}

// TestLingerOutlastsKick is the deterministic form of the reset that
// TestShutdownMidPipelineResetsNoReply saw now and then: a kick landing after
// linger has set its deadline must not end the linger with the client's input
// unread, for the Close that follows would answer it with RST.
func TestLingerOutlastsKick(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client := dialRaw(t, ln.Addr().String())
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	// Commands the drain will not execute, then the client's end of the
	// stream.
	if _, err := client.Write(command("GET", "k")); err != nil {
		t.Fatal(err)
	}
	client.(*net.TCPConn).CloseWrite()

	(&conn{nc: &kickOnceConn{TCPConn: sc.(*net.TCPConn)}}).linger()
	sc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := sc.Read(make([]byte, 64)); n > 0 || err != io.EOF {
		t.Fatalf("after linger the socket still holds unread input (read %d bytes, %v)", n, err)
	}
}

// TestOneGoroutinePerConnection: N idle connections cost N goroutines.
func TestOneGoroutinePerConnection(t *testing.T) {
	_, addr := startServer(t, Config{})
	const n = 16
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		c := dial(t, addr)
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatalf("PING: %v", err)
		}
	}
	// A goroutine of an earlier test may still be on its way out, so the
	// bounds are a little loose; a pair per connection would be 2n.
	if got := runtime.NumGoroutine() - before; got < n-2 || got > n+2 {
		t.Fatalf("%d idle connections cost %d goroutines, want %d", n, got, n)
	}
}

// TestConcurrentConnections runs parallel pipelining clients against one
// server; with -race this is the main interleaving stress.
func TestConcurrentConnections(t *testing.T) {
	_, addr := startServer(t, Config{})
	const workers, ops = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := resp.DialTimeout(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(30 * time.Second))
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("w%dk%03d", w, i)
				if err := c.SendStr("SET", key, key); err != nil {
					errs <- err
					return
				}
				if err := c.SendStr("GET", key); err != nil {
					errs <- err
					return
				}
			}
			if err := c.Flush(); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 2*ops; i++ {
				if _, err := c.Recv(); err != nil {
					errs <- fmt.Errorf("worker %d recv %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDisconnectAbortsTxn drops a connection mid-transaction and checks the
// server rolls the transaction back: its record locks release so another
// session can write the same key, and the dirty write is not visible.
func TestDisconnectAbortsTxn(t *testing.T) {
	srv, addr := startServer(t, Config{})

	c1 := dial(t, addr)
	if rep, err := c1.DoStr("BEGIN"); err != nil || rep.Str != "OK" {
		t.Fatalf("BEGIN = %+v, %v", rep, err)
	}
	if err := c1.Set([]byte("contended"), []byte("dirty")); err != nil {
		t.Fatalf("txn SET: %v", err)
	}
	// Hard close with the transaction open.
	c1.Close()

	// The server notices the close asynchronously; wait for the abort.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().DisconnectAborts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect abort not recorded")
		}
		time.Sleep(time.Millisecond)
	}

	// A second session can now lock and write the same key immediately.
	c2 := dial(t, addr)
	defer c2.Close()
	if err := c2.Set([]byte("contended"), []byte("clean")); err != nil {
		t.Fatalf("post-disconnect SET: %v", err)
	}
	val, ok, err := c2.Get([]byte("contended"))
	if err != nil || !ok || string(val) != "clean" {
		t.Fatalf("GET contended = %q, %v, %v (dirty txn leaked?)", val, ok, err)
	}
}

// TestGracefulShutdown pipelines a batch including a COMMIT, then calls
// Shutdown while replies are in flight: every queued command's reply must
// still arrive (the in-flight commit completes), and Serve returns nil.
func TestGracefulShutdown(t *testing.T) {
	tree, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := New(tree, Config{})
	listen(t, srv)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	c := dial(t, srv.Addr().String())
	defer c.Close()
	c.SendStr("BEGIN")
	for i := 0; i < 50; i++ {
		c.SendStr("SET", fmt.Sprintf("g%03d", i), "v")
	}
	c.SendStr("COMMIT")
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Wait until the server has started executing the batch, then shut down
	// concurrently with the in-flight pipeline.
	deadline := time.Now().Add(5 * time.Second)
	for srv.CommandCount("SET") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never started executing")
		}
		time.Sleep(100 * time.Microsecond)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// All 52 replies must arrive despite the concurrent shutdown.
	for i := 0; i < 52; i++ {
		rep, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d during shutdown: %v", i, err)
		}
		if rep.IsError() {
			t.Fatalf("reply %d is error: %+v", i, rep)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := srv.Stats().TxnCommits; got != 1 {
		t.Fatalf("TxnCommits = %d, want 1", got)
	}
	// Tree is closed; further dials are refused or die immediately.
	if nc, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second); err == nil {
		nc.Close()
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestShutdownOpenTransaction checks the other half of "in flight": a
// connection inside BEGIN..COMMIT when the drain starts may send the rest of
// its transaction, while a connection idle outside a transaction is closed
// at once.
func TestShutdownOpenTransaction(t *testing.T) {
	tree, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := New(tree, Config{})
	listen(t, srv)
	go srv.Serve()

	idle, inTxn := dial(t, srv.Addr().String()), dial(t, srv.Addr().String())
	defer idle.Close()
	defer inTxn.Close()
	if err := idle.Ping(); err != nil {
		t.Fatalf("PING: %v", err)
	}
	for _, cmd := range [][]string{{"BEGIN"}, {"SET", "t1", "v"}} {
		if rep, err := inTxn.DoStr(cmd...); err != nil || rep.IsError() {
			t.Fatalf("%v: %+v, %v", cmd, rep, err)
		}
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// The idle connection's EOF shows the kick has been delivered.
	if _, err := idle.Recv(); err == nil {
		t.Fatal("idle connection still open during drain")
	}
	for _, cmd := range [][]string{{"SET", "t2", "v"}, {"COMMIT"}} {
		if rep, err := inTxn.DoStr(cmd...); err != nil || rep.IsError() {
			t.Fatalf("%v during drain: %+v, %v", cmd, rep, err)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := srv.Stats().TxnCommits; got != 1 {
		t.Fatalf("TxnCommits = %d, want 1", got)
	}
}

// TestConnLimit checks the MaxConns reject path: the over-limit client gets
// the -ERR courtesy reply and is closed.
func TestConnLimit(t *testing.T) {
	srv, addr := startServer(t, Config{MaxConns: 2})
	c1, c2 := dial(t, addr), dial(t, addr)
	defer c1.Close()
	defer c2.Close()
	if err := c1.Ping(); err != nil {
		t.Fatalf("c1 PING: %v", err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatalf("c2 PING: %v", err)
	}

	c3 := dial(t, addr)
	defer c3.Close()
	rep, err := c3.DoStr("PING")
	if err == nil && (!rep.IsError() || rep.ErrorCode() != "ERR") {
		t.Fatalf("over-limit PING = %+v, want -ERR or closed conn", rep)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Rejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejected connection not counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleTimeout checks that a silent connection is closed and counted.
func TestIdleTimeout(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	c := dial(t, addr)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("PING: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().IdleClosed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("PING succeeded on idle-closed connection")
	}
}

// TestProtoErrorClosesConn sends malformed framing and expects the -PROTO
// reply followed by connection close.
func TestProtoErrorClosesConn(t *testing.T) {
	srv, addr := startServer(t, Config{})
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write([]byte("GET inline-commands-not-supported\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 512)
	n, err := nc.Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.HasPrefix(string(buf[:n]), "-PROTO ") {
		t.Fatalf("reply = %q, want -PROTO prefix", buf[:n])
	}
	// Connection must be closed afterwards: next read hits EOF.
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("connection still open after protocol error")
	}
	if got := srv.Stats().ProtoErrors; got != 1 {
		t.Fatalf("ProtoErrors = %d, want 1", got)
	}
}

// TestAdminHandler scrapes the admin endpoint in every format.
func TestAdminHandler(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)
	defer c.Close()
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("SET: %v", err)
	}

	ts := httptest.NewServer(AdminHandler(srv))
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer res.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := res.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	prom := get("/metrics?format=prometheus")
	for _, want := range []string{
		"blinktree_ops_total",
		"blinktree_server_connections",
		`blinktree_server_commands_total{verb="SET"} 1`,
		"blinktree_server_verb_latency_seconds_bucket",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus scrape missing %q", want)
		}
	}

	jsonDoc := get("/metrics")
	for _, want := range []string{`"server"`, `"commands"`, `"pipeline"`} {
		if !strings.Contains(jsonDoc, want) {
			t.Errorf("expvar scrape missing %q", want)
		}
	}

	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("healthz = %q", body)
	}
	if body := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine profile:") {
		t.Errorf("pprof goroutine profile = %.80q", body)
	}
}

// TestGetValueSizes: GET writes the value into the reply buffer ahead of the
// bulk header and slides it into place; every header width, an empty value,
// a shrinking and a growing size hint, and a transaction's read must frame
// correctly.
func TestGetValueSizes(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	defer c.Close()
	sizes := []int{1500, 0, 1, 9, 10, 99, 100, 999, 1000, 1, 1900}
	for i, n := range sizes {
		val := bytes.Repeat([]byte{byte('a' + i)}, n)
		if err := c.Set([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatalf("SET %d bytes: %v", n, err)
		}
	}
	for _, txn := range []bool{false, true} {
		if txn {
			if rep, err := c.DoStr("BEGIN"); err != nil || rep.Str != "OK" {
				t.Fatalf("BEGIN = %+v, %v", rep, err)
			}
		}
		for i, n := range sizes {
			got, ok, err := c.Get([]byte(fmt.Sprintf("k%d", i)))
			if err != nil || !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte('a' + i)}, n)) {
				t.Fatalf("txn=%v GET of %d bytes = %d bytes, ok=%v, %v", txn, n, len(got), ok, err)
			}
		}
	}
}

// getLoop returns a function that sends depth GETs of one 100-byte value in
// one write and reads their replies, over a bare socket and fixed buffers:
// what it allocates, the server allocated.
func getLoop(t testing.TB, depth int) func() {
	_, addr := startServer(t, Config{})
	nc := dialRaw(t, addr)
	nc.SetDeadline(time.Time{})
	if _, err := nc.Write(command("SET", "key", strings.Repeat("v", 100))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := io.ReadFull(nc, make([]byte, len("+OK\r\n"))); err != nil {
		t.Fatalf("read: %v", err)
	}
	req := bytes.Repeat(command("GET", "key"), depth)
	rep := make([]byte, depth*len("$100\r\n"+"\r\n")+depth*100)
	return func() {
		if _, err := nc.Write(req); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := io.ReadFull(nc, rep); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
}

// TestServeGetAllocs bounds what the server allocates to answer a GET: the
// six allocations of resp.ReadCommand (the argument slice; a header line for
// the array and for each argument; a payload for each argument) and nothing
// for the verb lookup or the reply, which is encoded in place in the
// connection's write buffer. It was seven with a reply slice per command.
func TestServeGetAllocs(t *testing.T) {
	for _, depth := range []int{1, 32} {
		loop := getLoop(t, depth)
		if got := testing.AllocsPerRun(200, loop) / float64(depth); got > 6.5 {
			t.Errorf("depth %d: %.2f allocations per GET, want <= 6", depth, got)
		}
	}
}

// BenchmarkServeGet is a GET round trip over loopback, one request at a time
// and 32 to a write.
func BenchmarkServeGet(b *testing.B) {
	for _, depth := range []int{1, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			loop := getLoop(b, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += depth {
				loop()
			}
		})
	}
}
