package blinkmetrics

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	blinktree "blinktree"
	"blinktree/internal/obs"
)

// openTree builds an in-memory tree with full observability and some traffic.
func openTree(t *testing.T) *blinktree.Tree {
	t.Helper()
	if !obs.Compiled {
		t.Skip("observability compiled out (obsoff)")
	}
	tr, err := blinktree.Open(blinktree.Options{
		PageSize:      512,
		Observability: &blinktree.Observability{Metrics: true, Trace: true},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	for i := 0; i < 500; i++ {
		k := []byte{byte(i >> 8), byte(i)}
		if err := tr.Put(k, k); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < 100; i++ {
		k := []byte{byte(i >> 8), byte(i)}
		if _, err := tr.Get(k); err != nil {
			t.Fatalf("get: %v", err)
		}
		if err := tr.Delete(k); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	tr.Maintain()
	return tr
}

func TestHandlerExpvarJSON(t *testing.T) {
	tr := openTree(t)
	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))

	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"stats", "latch", "pool", "store", "locks", "latency", "trace"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("missing top-level key %q", key)
		}
	}
	lat, ok := doc["latency"].(map[string]any)
	if !ok {
		t.Fatalf("latency section missing")
	}
	ops := lat["ops"].(map[string]any)
	ins := ops["insert"].(map[string]any)
	if ins["count"].(float64) < 400 {
		t.Errorf("insert histogram count = %v, want >= 400", ins["count"])
	}
	if ins["p50_ns"].(float64) <= 0 || ins["p999_ns"].(float64) < ins["p50_ns"].(float64) {
		t.Errorf("implausible quantiles: %v", ins)
	}
}

func TestHandlerPrometheus(t *testing.T) {
	tr := openTree(t)
	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))

	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()

	// Every abort cause must be present even at zero, with dx and dd as
	// distinct causes.
	for _, series := range []string{
		`blinktree_smo_aborts_total{action="post",cause="dx"}`,
		`blinktree_smo_aborts_total{action="post",cause="dd"}`,
		`blinktree_smo_aborts_total{action="delete",cause="dx"}`,
		`blinktree_smo_aborts_total{action="delete",cause="edge"}`,
		`blinktree_ops_total{op="insert"} 500`,
		`blinktree_ops_total{op="delete"} 100`,
		`blinktree_op_latency_seconds_bucket{op="insert",le="+Inf"}`,
		`blinktree_op_latency_seconds_count{op="search"} 100`,
		`blinktree_action_latency_seconds_bucket{action="post",le="+Inf"}`,
		"# TYPE blinktree_op_latency_seconds histogram",
		"blinktree_recovered 0",
		`blinktree_recovery_total{event="records_scanned"} 0`,
		`blinktree_recovery_total{event="corrupt_pages"} 0`,
		"# TYPE blinktree_wal_first_change_images_total counter",
		"blinktree_recovery_torn_tail_bytes 0",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("missing series %q", series)
		}
	}

	// le buckets must be cumulative: the +Inf bucket equals the count.
	if !strings.Contains(body, "blinktree_op_latency_seconds_count{op=\"insert\"} ") {
		t.Errorf("missing insert histogram count")
	}
}

func TestHandlerTraceDump(t *testing.T) {
	tr := openTree(t)
	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=trace", nil))

	events, err := obs.ReadTrace(rec.Body)
	if err != nil {
		t.Fatalf("trace dump does not round-trip: %v", err)
	}
	if len(events) == 0 {
		t.Fatalf("no trace events; splits should have enqueued posts")
	}
	var sawEnq, sawDone bool
	for _, e := range events {
		switch e.Kind {
		case obs.EvEnqueued:
			sawEnq = true
		case obs.EvCompleted:
			sawDone = true
		}
	}
	if !sawEnq || !sawDone {
		t.Errorf("missing lifecycle kinds: enqueued=%v completed=%v", sawEnq, sawDone)
	}
}

func TestWriteExpvarDisabledTree(t *testing.T) {
	if obs.ForceTrace {
		t.Skip("obstrace build forces metrics on for every tree")
	}
	tr, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer tr.Close()
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}

	var sb strings.Builder
	if err := WriteExpvar(&sb, tr.Snapshot()); err != nil {
		t.Fatalf("expvar: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := doc["latency"]; ok {
		t.Errorf("latency section present on a tree without metrics")
	}
	sb.Reset()
	if err := WritePrometheus(&sb, tr.Snapshot()); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	if !strings.Contains(sb.String(), `blinktree_smo_aborts_total{action="post",cause="dd"} 0`) {
		t.Errorf("zero-valued abort series must still be emitted")
	}
}

// TestPrometheusHeadersEveryFamily asserts that EVERY family appearing as a
// sample line in the Prometheus exposition carries both a # HELP and a
// # TYPE header, for a tree with metrics enabled so the Obs-gated sections
// are exercised too. Histogram families export _bucket/_sum/_count samples
// under the base family's headers.
func TestPrometheusHeadersEveryFamily(t *testing.T) {
	tr := openTree(t)
	var sb strings.Builder
	if err := WritePrometheus(&sb, tr.Snapshot()); err != nil {
		t.Fatalf("prometheus: %v", err)
	}

	help := map[string]bool{}
	typ := map[string]string{}
	var families []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("malformed HELP line %q (missing help text?)", line)
			}
			help[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typ[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		if name == "" {
			t.Fatalf("sample line with empty family: %q", line)
		}
		families = append(families, name)
	}
	if len(families) == 0 {
		t.Fatal("no sample lines in exposition")
	}

	// base maps a sample family to the family its headers are declared
	// under: histogram samples use the _bucket/_sum/_count suffixes.
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && typ[trimmed] == "histogram" {
				return trimmed
			}
		}
		return name
	}
	seen := map[string]bool{}
	for _, name := range families {
		b := base(name)
		if seen[b] {
			continue
		}
		seen[b] = true
		if !help[b] {
			t.Errorf("family %q (sample %q) has no # HELP header", b, name)
		}
		if typ[b] == "" {
			t.Errorf("family %q (sample %q) has no # TYPE header", b, name)
		}
	}

	// The wal_group families named by the runbook must all be declared.
	for _, f := range []string{
		"blinktree_wal_group_total", "blinktree_wal_group_batch_max",
		"blinktree_wal_group_force_seconds", "blinktree_wal_group_ack_seconds",
		"blinktree_wal_group_batch_commits",
	} {
		if !help[f] || typ[f] == "" {
			t.Errorf("wal group family %q missing headers (help=%v type=%q)", f, help[f], typ[f])
		}
	}
}

// openSpanTree builds an in-memory tree sampling every operation's span.
func openSpanTree(t *testing.T) *blinktree.Tree {
	t.Helper()
	if !obs.Compiled {
		t.Skip("observability compiled out (obsoff)")
	}
	tr, err := blinktree.Open(blinktree.Options{
		PageSize:      512,
		Observability: &blinktree.Observability{Spans: true, SampleEvery: 1},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	for i := 0; i < 200; i++ {
		k := []byte{byte(i >> 8), byte(i)}
		if err := tr.Put(k, k); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < 50; i++ {
		k := []byte{byte(i >> 8), byte(i)}
		if _, err := tr.Get(k); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	return tr
}

func TestHandlerSpansEndpoint(t *testing.T) {
	tr := openSpanTree(t)
	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=spans", nil))

	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	spans, err := obs.ReadChromeTrace(rec.Body)
	if err != nil {
		t.Fatalf("spans endpoint does not round-trip: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans from a tree sampling every operation")
	}
	for _, sp := range spans {
		if sp.Total <= 0 {
			t.Errorf("span %d has non-positive total %v", sp.Seq, sp.Total)
		}
	}
}

// TestPrometheusSpanSeries checks the span-derived families: stage latency
// histograms, the sampled/slow counters, and the threshold gauge.
func TestPrometheusSpanSeries(t *testing.T) {
	tr := openSpanTree(t)
	var sb strings.Builder
	if err := WritePrometheus(&sb, tr.Snapshot()); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	body := sb.String()
	for _, series := range []string{
		"# TYPE blinktree_stage_latency_seconds histogram",
		`blinktree_stage_latency_seconds_bucket{stage="traverse",le="+Inf"}`,
		`blinktree_stage_latency_seconds_bucket{stage="wal-append",le="+Inf"}`,
		`blinktree_spans_total{event="sampled"}`,
		`blinktree_spans_total{event="slow"}`,
		"blinktree_slow_op_threshold_seconds",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("missing series %q", series)
		}
	}
	if strings.Contains(body, `blinktree_spans_total{event="sampled"} 0`) {
		t.Errorf("sampled span counter is zero with SampleEvery=1")
	}
}

// TestPrometheusBuildInfo checks the build_info gauge is exported even for a
// tree with observability disabled.
func TestPrometheusBuildInfo(t *testing.T) {
	tr, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer tr.Close()
	var sb strings.Builder
	if err := WritePrometheus(&sb, tr.Snapshot()); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	body := sb.String()
	if !strings.Contains(body, "# TYPE blinktree_build_info gauge") {
		t.Errorf("missing build_info TYPE header")
	}
	if !strings.Contains(body, `blinktree_build_info{version="`) || !strings.Contains(body, "} 1\n") {
		t.Errorf("missing build_info sample: %q", body[:200])
	}
}

// TestPrometheusRecoveredTree reopens a durable tree and checks that the
// recovery series reflect the replay (Recovered gauge flips to 1 and the
// scan counter is nonzero).
func TestPrometheusRecoveredTree(t *testing.T) {
	dir := t.TempDir()
	tr, err := blinktree.Open(blinktree.Options{Path: dir, PageSize: 512})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 50; i++ {
		k := []byte{byte(i >> 8), byte(i)}
		if err := tr.Put(k, k); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	tr, err = blinktree.Open(blinktree.Options{Path: dir, PageSize: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer tr.Close()

	var sb strings.Builder
	if err := WritePrometheus(&sb, tr.Snapshot()); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	body := sb.String()
	if !strings.Contains(body, "blinktree_recovered 1") {
		t.Errorf("recovered gauge not set after reopen")
	}
	// The store was closed cleanly: the open read the closing checkpoint
	// record, a few dozen bytes, and not the whole log.
	if !strings.Contains(body, `blinktree_recovery_total{event="records_scanned"} 1`+"\n") {
		t.Errorf("records_scanned is not 1 after a clean shutdown")
	}
	if strings.Contains(body, `blinktree_recovery_total{event="log_bytes_read"} 0`) ||
		strings.Contains(body, "blinktree_recovery_restart_lsn 0") || strings.Contains(body, "blinktree_recovery_restart_lsn 1\n") ||
		strings.Contains(body, "blinktree_recovery_full_log_read{") {
		t.Errorf("restart series do not show a read from the closing checkpoint:\n%s", body)
	}
	tr.Close()

	// Without the master record the same open reads everything and says why.
	if err := os.Remove(filepath.Join(dir, "wal.log.ckpt")); err != nil {
		t.Fatal(err)
	}
	tr, err = blinktree.Open(blinktree.Options{Path: dir, PageSize: 512})
	if err != nil {
		t.Fatalf("reopen without master: %v", err)
	}
	defer tr.Close()
	sb.Reset()
	if err := WritePrometheus(&sb, tr.Snapshot()); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	for _, series := range []string{
		`blinktree_recovery_full_log_read{reason="no master record"} 1`,
		"blinktree_recovery_restart_lsn 1\n",
	} {
		if !strings.Contains(sb.String(), series) {
			t.Errorf("missing series %q after a full-log open", series)
		}
	}
}

func TestPrometheusBulkLoadFamily(t *testing.T) {
	tr, err := blinktree.Open(blinktree.Options{PageSize: 512})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer tr.Close()
	i := 0
	next := func() ([]byte, []byte, bool) {
		if i >= 4000 {
			return nil, nil, false
		}
		k := []byte{byte(i >> 8), byte(i)}
		i++
		return k, k, true
	}
	if err := tr.BulkLoad(next, 0.85); err != nil {
		t.Fatalf("bulk load: %v", err)
	}

	var sb strings.Builder
	if err := WritePrometheus(&sb, tr.Snapshot()); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	body := sb.String()
	for _, series := range []string{
		`blinktree_bulkload_total{event="pages"}`,
		`blinktree_bulkload_total{event="chunks"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("missing series %q", series)
		}
	}
	if strings.Contains(body, `blinktree_bulkload_total{event="pages"} 0`) {
		t.Errorf("bulkload pages counter is zero after a load")
	}

	// The expvar document carries the same counters inside the stats block.
	m := tr.Snapshot()
	doc := ExpvarDoc(m)
	raw, err := json.Marshal(doc["stats"])
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	var stats map[string]any
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("unmarshal stats: %v", err)
	}
	if v, ok := stats["BulkLoadPages"].(float64); !ok || v == 0 {
		t.Errorf("expvar stats BulkLoadPages = %v", stats["BulkLoadPages"])
	}
	if v, ok := stats["BulkLoadChunks"].(float64); !ok || v == 0 {
		t.Errorf("expvar stats BulkLoadChunks = %v", stats["BulkLoadChunks"])
	}
}
