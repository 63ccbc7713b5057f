package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	blinktree "blinktree"
	"blinktree/internal/resp"
)

// startServer launches a server over a fresh volatile tree and returns it
// with its address. Shutdown (which closes the tree) runs in cleanup unless
// the test already shut it down.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	tree, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := New(tree, cfg)
	if err := srv.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
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
// pipelines from the client side and checks that replies come back exactly
// in request order. Run under -race this also exercises the reader/writer
// pair for data races.
func TestPipelinedOrdering(t *testing.T) {
	_, addr := startServer(t, Config{WriteQueue: 8}) // small queue: force backpressure
	c := dial(t, addr)
	defer c.Close()

	const n = 500
	for i := 0; i < n; i++ {
		if err := c.SendStr("SET", fmt.Sprintf("k%04d", i), fmt.Sprintf("v%04d", i)); err != nil {
			t.Fatalf("send SET %d: %v", i, err)
		}
		if err := c.SendStr("GET", fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatalf("send GET %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < n; i++ {
		rep, err := c.Recv()
		if err != nil {
			t.Fatalf("recv SET reply %d: %v", i, err)
		}
		if rep.Kind != resp.KindSimple || rep.Str != "OK" {
			t.Fatalf("SET reply %d = %+v", i, rep)
		}
		rep, err = c.Recv()
		if err != nil {
			t.Fatalf("recv GET reply %d: %v", i, err)
		}
		if want := fmt.Sprintf("v%04d", i); string(rep.Bulk) != want {
			t.Fatalf("GET reply %d = %q, want %q (reply order violated)", i, rep.Bulk, want)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after draining", c.Pending())
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
	if err := srv.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
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
	if err := srv.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
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
