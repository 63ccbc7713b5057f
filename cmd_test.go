package blinktree_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"blinktree"
	"blinktree/internal/resp"
	"blinktree/internal/wal"
)

// TestCommandLineTools exercises blinkbench (figures mode), blinkcheck and
// blinkdump end-to-end against a real durable tree.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd tools are slow to build; skipped in -short")
	}
	dir := t.TempDir()
	tr, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tr.Put([]byte{byte(i >> 8), byte(i), 'k'}, []byte("v"))
	}
	x, _ := tr.Begin()
	x.Put([]byte("txn-key"), []byte("v"))
	x.Commit()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	out := run("run", "./cmd/blinkcheck", "-path", dir, "-pagesize", "1024")
	if !strings.Contains(out, "ok: tree verified clean") || !strings.Contains(out, "records: 501") {
		t.Fatalf("blinkcheck output:\n%s", out)
	}

	out = run("run", "./cmd/blinkcheck", "-path", dir, "-pagesize", "1024", "-deep")
	for _, want := range []string{"ok: deep audit clean", "records: 501", "no leaks", "dense"} {
		if !strings.Contains(out, want) {
			t.Fatalf("blinkcheck -deep missing %q:\n%s", want, out)
		}
	}

	out = run("run", "./cmd/blinkdump", "-path", dir, "-pagesize", "1024", "-tree", "-wal")
	if !strings.Contains(out, "write-ahead log:") || !strings.Contains(out, "tree structure") {
		t.Fatalf("blinkdump output:\n%s", out)
	}
	if !strings.Contains(out, "SMO format") && !strings.Contains(out, "BEGIN") {
		t.Fatalf("blinkdump WAL section missing records:\n%s", out)
	}
	// The listing ends with what the log is made of, per kind. This store
	// logged no bulk load, so every image is a split's or a first change's.
	summary := regexp.MustCompile(`(?m)^-- log by kind --\nkind +records +bytes +image bytes\n(?:.+\n)*total +(\d+) +(\d+) +(\d+)$`).FindStringSubmatch(out)
	if summary == nil || !regexp.MustCompile(`(?m)^RECOP +\d+ +\d+ +\d+$`).MatchString(out) ||
		!regexp.MustCompile(`(?m)^SMO split +\d+ +\d+ +[1-9]\d*$`).MatchString(out) {
		t.Fatalf("blinkdump -wal has no per-kind summary with its RECOP, SMO split and total rows:\n%s", out)
	}
	if n := regexp.MustCompile(`write-ahead log: (\d+) records`).FindStringSubmatch(out); n == nil || n[1] != summary[1] {
		t.Fatalf("blinkdump -wal summary totals %s records, the listing %v:\n%s", summary[1], n, out)
	}
	// The store was closed cleanly: the master record names the closing
	// checkpoint, and the listing marks it as the restart point.
	if !regexp.MustCompile(`master record: position \d+, LSN \d+, valid true`).MatchString(out) ||
		!regexp.MustCompile(`-- restart point --\n\d+ CKPT active=0`).MatchString(out) {
		t.Fatalf("blinkdump -wal does not show a valid master record and its restart point:\n%s", out)
	}

	// A master record that names no checkpoint of this log is survived (the
	// whole log is read) but reported, and blinkcheck exits non-zero.
	if err := os.WriteFile(filepath.Join(dir, "wal.log.ckpt"), wal.Master{Pos: 0, LSN: 1}.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := exec.Command("go", "run", "./cmd/blinkcheck", "-path", dir, "-pagesize", "1024").CombinedOutput()
	if err == nil || !strings.Contains(string(bad), "read the whole log") || !strings.Contains(string(bad), wal.WhyBadMaster) {
		t.Fatalf("blinkcheck over a stale master record: err %v, output:\n%s", err, bad)
	}
	out = run("run", "./cmd/blinkdump", "-path", dir, "-wal")
	if !strings.Contains(out, "valid false "+wal.WhyBadMaster) || strings.Contains(out, "restart point") {
		t.Fatalf("blinkdump -wal over a stale master record:\n%s", out)
	}

	out = run("run", "./cmd/blinkbench", "-list")
	for _, want := range []string{"figures", "E1", "E10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("blinkbench -list missing %q:\n%s", want, out)
		}
	}

	out = run("run", "./cmd/blinkbench", "-exp", "figures")
	for _, want := range []string{"Figure 1", "Figure 4", "aborted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("blinkbench figures missing %q:\n%s", want, out)
		}
	}

	for _, tool := range []string{"blinkbench", "blinkcheck", "blinkdump"} {
		out = run("run", "./cmd/"+tool, "-version")
		if !strings.Contains(out, "blinktree") || !strings.Contains(out, "go1") {
			t.Fatalf("%s -version output:\n%s", tool, out)
		}
	}
}

// TestBlinkdEndToEnd boots a real blinkd binary on a durable store, drives
// every protocol verb through the resp client, scrapes the admin port, then
// sends SIGTERM and asserts a clean-shutdown exit 0 — after which the store
// must reopen with the committed data intact. A second instance is signalled
// the moment its listen banner appears and must exit the same way.
func TestBlinkdEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd tools are slow to build; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "blinkd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/blinkd").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/blinkd: %v\n%s", err, out)
	}

	dir := t.TempDir()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-path", dir, "-pagesize", "4096", "-durability", "group")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// The banner lines carry the dynamically chosen ports.
	var addr, adminAddr string
	sc := bufio.NewScanner(stderr)
	for (addr == "" || adminAddr == "") && sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, " listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
		if _, rest, ok := strings.Cut(line, " admin on http://"); ok {
			adminAddr, _, _ = strings.Cut(rest, "/")
		}
	}
	if addr == "" || adminAddr == "" {
		t.Fatalf("blinkd banner did not announce addresses (addr=%q admin=%q)", addr, adminAddr)
	}
	var rest bytes.Buffer
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
	}()

	c, err := resp.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get([]byte("k1")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("GET k1 = %q, %v, %v", v, ok, err)
	}
	if del, err := c.Del([]byte("k1")); err != nil || !del {
		t.Fatalf("DEL k1 = %v, %v", del, err)
	}
	// A pipelined transaction: BEGIN, two SETs, COMMIT in one flush.
	for _, args := range [][]string{
		{"BEGIN"}, {"SET", "txn-a", "1"}, {"SET", "txn-b", "2"}, {"COMMIT"},
	} {
		if err := c.SendStr(args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rep, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if rep.IsError() {
			t.Fatalf("txn pipeline reply %d: %v", i, rep.Err())
		}
	}
	rep, err := c.DoStr("SCAN", "txn-", "txn-zzz", "10")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != resp.KindArray || len(rep.Array) != 4 {
		t.Fatalf("SCAN reply: kind=%v len=%d", rep.Kind, len(rep.Array))
	}
	rep, err = c.DoStr("INFO")
	if err != nil {
		t.Fatal(err)
	}
	info := string(rep.Bulk)
	for _, want := range []string{"server:blinkd", "txns_committed:1", "commands_set:"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}

	// Admin port: Prometheus series for both the tree and the server.
	body := httpGet(t, fmt.Sprintf("http://%s/metrics?format=prometheus", adminAddr))
	for _, want := range []string{"blinktree_ops_total", "blinktree_server_connections", `blinktree_server_commands_total{verb="SET"}`} {
		if !strings.Contains(body, want) {
			t.Fatalf("admin metrics missing %q", want)
		}
	}
	if body := httpGet(t, fmt.Sprintf("http://%s/healthz", adminAddr)); !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %q", body)
	}

	// SIGTERM must drain and exit 0 with a clean-shutdown banner.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait closes the stderr pipe, so it may only run once the reader has
	// seen EOF (os/exec: "incorrect to call Wait before all reads from the
	// pipe have completed") — or the final banner line is sometimes lost.
	waitDone := make(chan error, 1)
	go func() { <-drained; waitDone <- cmd.Wait() }()
	select {
	case err := <-waitDone:
		killed = true
		if err != nil {
			t.Fatalf("blinkd exit after SIGTERM: %v\nstderr:\n%s", err, rest.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("blinkd did not exit within 60s of SIGTERM")
	}
	if !strings.Contains(rest.String(), "clean shutdown") {
		t.Fatalf("stderr missing clean-shutdown banner:\n%s", rest.String())
	}

	// The committed transaction must survive the restart boundary.
	tr, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if v, err := tr.Get([]byte("txn-a")); err != nil || string(v) != "1" {
		t.Fatalf("after restart Get(txn-a) = %q, %v", v, err)
	}

	// A supervisor may signal the moment it sees the listen banner: the
	// handler must be in place by then, or the default action kills the
	// process with a nonzero exit.
	early := exec.Command(bin, "-addr", "127.0.0.1:0")
	earlyErr, err := early.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := early.Start(); err != nil {
		t.Fatal(err)
	}
	defer time.AfterFunc(60*time.Second, func() { early.Process.Kill() }).Stop()
	var log bytes.Buffer
	sc = bufio.NewScanner(earlyErr)
	for signalled := false; sc.Scan(); {
		log.WriteString(sc.Text() + "\n")
		if !signalled && strings.Contains(sc.Text(), " listening on ") {
			signalled = true
			if err := early.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := early.Wait(); err != nil {
		t.Fatalf("blinkd exit after SIGTERM at the banner: %v\nstderr:\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "clean shutdown") {
		t.Fatalf("stderr missing clean-shutdown banner:\n%s", log.String())
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	res, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSpanTraceEndToEnd runs blinkbench with span sampling, captures the
// Chrome trace JSON, and feeds it back through blinkdump -spans: the
// attribution table must come out of both ends.
func TestSpanTraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd tools are slow to build; skipped in -short")
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")

	out, err := exec.Command("go", "run", "./cmd/blinkbench",
		"-lat", "-spans", "-preload", "500", "-ops", "2000",
		"-sample", "8", "-spansout", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("blinkbench -spans: %v\n%s", err, out)
	}
	for _, want := range []string{
		"tail-latency attribution", "stage coverage 100.0%",
		"p99 tail:", "p999 tail:", "slow-op flight recorder", "wrote",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("blinkbench -spans missing %q:\n%s", want, out)
		}
	}

	out, err = exec.Command("go", "run", "./cmd/blinkdump", "-spans", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("blinkdump -spans: %v\n%s", err, out)
	}
	for _, want := range []string{"tail-latency attribution", "p999 tail:"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("blinkdump -spans missing %q:\n%s", want, out)
		}
	}
}
