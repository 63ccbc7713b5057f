// Package blinkmetrics exports a tree's observability snapshot over HTTP.
//
// Two wire formats are supported from the same handler:
//
//   - expvar-compatible JSON (the default): one document with every counter
//     family plus, when metrics are enabled, per-class latency summaries
//     (count, mean, p50/p99/p999).
//   - Prometheus text exposition (?format=prometheus): counters, gauges and
//     cumulative le-bucket histograms in seconds.
//
// The package reads only through the public blinktree API; a *blinktree.Tree
// is a Source as-is:
//
//	http.Handle("/metrics", blinkmetrics.Handler(tree))
package blinkmetrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"

	blinktree "blinktree"
	"blinktree/internal/buildinfo"
	"blinktree/internal/obs"
)

// Source supplies snapshots to the handler. *blinktree.Tree implements it.
type Source interface {
	Snapshot() blinktree.Metrics
	TraceEvents() []blinktree.TraceEvent
	Spans() []blinktree.OpTrace
}

// Handler serves src's current snapshot. The format is chosen by the
// "format" query parameter: "prometheus" (or "prom") for text exposition,
// "trace" for the JSON Lines trace dump, "spans" for the sampled-span ring
// as Chrome trace-event JSON (loadable in Perfetto / about:tracing),
// anything else for expvar JSON.
func Handler(src Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "prometheus", "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = WritePrometheus(w, src.Snapshot())
		case "trace":
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = obs.WriteTrace(w, src.TraceEvents())
		case "spans":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = obs.WriteChromeTrace(w, src.Spans())
		default:
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = WriteExpvar(w, src.Snapshot())
		}
	})
}

// Publish registers src under name with the process expvar registry, so the
// snapshot appears in /debug/vars alongside the runtime's variables.
func Publish(name string, src Source) {
	expvar.Publish(name, expvar.Func(func() any { return ExpvarDoc(src.Snapshot()) }))
}

// ExpvarDoc builds the JSON document WriteExpvar emits. Map keys marshal in
// sorted order, so the output is deterministic for a given snapshot.
func ExpvarDoc(m blinktree.Metrics) map[string]any {
	doc := map[string]any{
		"stats":  m.Stats,
		"latch":  m.Latch,
		"pool":   m.Pool,
		"store":  m.Store,
		"locks":  m.Locks,
		"height": m.Height,
		"wal": map[string]uint64{
			"appends":              m.LogAppends,
			"forces":               m.LogForces,
			"group_commits":        m.WALGroup.Commits,
			"group_immediate_acks": m.WALGroup.ImmediateAcks,
			"group_forces":         m.WALGroup.Forces,
			"group_max_batch":      m.WALGroup.MaxBatch,
		},
		"recovery": m.Recovery,
	}
	if m.Obs == nil {
		return doc
	}
	ops := map[string]any{}
	for op := obs.OpSearch; op < obs.OpCount; op++ {
		ops[op.String()] = histSummary(m.Obs.Ops[op])
	}
	actions := map[string]any{}
	for a := obs.ActPost; a < obs.ActCount; a++ {
		actions[a.String()] = histSummary(m.Obs.Actions[a])
	}
	doc["latency"] = map[string]any{
		"ops":         ops,
		"actions":     actions,
		"page_load":   histSummary(m.Obs.PageLoad),
		"writeback":   histSummary(m.Obs.WriteBack),
		"log_append":  histSummary(m.Obs.LogAppend),
		"log_flush":   histSummary(m.Obs.LogFlush),
		"lock_wait":   histSummary(m.Obs.LockWait),
		"group_force": histSummary(m.Obs.GroupForce),
		"group_ack":   histSummary(m.Obs.GroupAck),
	}
	doc["trace"] = map[string]uint64{
		"emitted":          m.Obs.TraceSeq,
		"dropped":          m.Obs.TraceDropped,
		"latch_long_waits": m.Obs.LatchLongWaits,
	}
	stages := map[string]any{}
	for st := obs.SpanStage(0); st < obs.StageCount; st++ {
		stages[st.String()] = histSummary(m.Obs.SpanStages[st])
	}
	doc["spans"] = map[string]any{
		"sampled":           m.Obs.SpansSampled,
		"slow":              m.Obs.SlowOps,
		"slow_threshold_ns": m.Obs.SlowOpThresholdNS,
		"stages":            stages,
	}
	return doc
}

// histSummary condenses one histogram into the JSON latency summary.
func histSummary(h obs.HistogramSnapshot) map[string]any {
	return map[string]any{
		"count":   h.Count,
		"sum_ns":  h.Sum,
		"mean_ns": int64(h.Mean()),
		"p50_ns":  int64(h.Quantile(0.50)),
		"p99_ns":  int64(h.Quantile(0.99)),
		"p999_ns": int64(h.Quantile(0.999)),
	}
}

// WriteExpvar writes the expvar-compatible JSON document for m.
func WriteExpvar(w io.Writer, m blinktree.Metrics) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ExpvarDoc(m))
}

// promWriter accumulates Prometheus text exposition lines, remembering the
// first write error so call sites stay linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// hist emits one histogram in Prometheus form (cumulative le buckets, in
// seconds) with a fixed label.
func (p *promWriter) hist(name, labelKey, labelVal string, h obs.HistogramSnapshot) {
	label := ""
	if labelKey != "" {
		label = labelKey + `="` + labelVal + `",`
	}
	var cum uint64
	for i := 0; i < obs.HistBuckets-1; i++ {
		cum += h.Buckets[i]
		le := strconv.FormatFloat(h.BucketBound(i).Seconds(), 'g', -1, 64)
		p.printf("%s_bucket{%sle=\"%s\"} %d\n", name, label, le, cum)
	}
	p.printf("%s_bucket{%sle=\"+Inf\"} %d\n", name, label, h.Count)
	flabel := ""
	if labelKey != "" {
		flabel = "{" + labelKey + `="` + labelVal + `"}`
	}
	p.printf("%s_sum%s %g\n", name, flabel, float64(h.Sum)/1e9)
	p.printf("%s_count%s %d\n", name, flabel, h.Count)
}

// WritePrometheus writes m in Prometheus text exposition format. Every
// series is emitted even at zero, so scrapes see a stable set and the SMO
// abort causes (dx vs dd vs identity vs edge) are always distinguishable.
func WritePrometheus(w io.Writer, m blinktree.Metrics) error {
	p := &promWriter{w: w}
	s := m.Stats

	p.header("blinktree_build_info", "Build metadata; the value is always 1.", "gauge")
	p.printf("blinktree_build_info{version=%q,goversion=%q,tags=%q,revision=%q} 1\n",
		buildinfo.Version(), buildinfo.GoVersion(), buildinfo.Tags(), buildinfo.Revision())

	p.header("blinktree_ops_total", "Completed operations by class.", "counter")
	for _, v := range []struct {
		op string
		n  uint64
	}{
		{"search", s.Searches}, {"insert", s.Inserts}, {"update", s.Updates},
		{"delete", s.Deletes}, {"scan", s.Scans},
	} {
		p.printf("blinktree_ops_total{op=%q} %d\n", v.op, v.n)
	}

	p.header("blinktree_traversal_total", "Traversal behaviour.", "counter")
	p.printf("blinktree_traversal_total{event=\"side\"} %d\n", s.SideTraversals)
	p.printf("blinktree_traversal_total{event=\"restart\"} %d\n", s.Restarts)
	p.printf("blinktree_traversal_total{event=\"exhausted\"} %d\n", s.TraverseExhausted)

	p.header("blinktree_optread_total", "Optimistic read-path traversal outcomes.", "counter")
	for _, v := range []struct {
		event string
		n     uint64
	}{
		{"attempt", s.OptReadAttempts}, {"restart", s.OptReadRestarts},
		{"fallback", s.OptReadFallbacks},
	} {
		p.printf("blinktree_optread_total{event=%q} %d\n", v.event, v.n)
	}

	p.header("blinktree_smo_total", "Structure modifications completed by kind.", "counter")
	for _, v := range []struct {
		kind string
		n    uint64
	}{
		{"split", s.Splits}, {"post", s.PostsDone},
		{"leaf_consolidate", s.LeafConsolidated},
		{"index_consolidate", s.IndexConsolidated},
		{"grow", s.Grows}, {"shrink", s.Shrinks},
	} {
		p.printf("blinktree_smo_total{kind=%q} %d\n", v.kind, v.n)
	}

	// Abort causes are split so D_X (global index-delete state) and D_D
	// (per-parent data-delete state) remain distinguishable downstream.
	p.header("blinktree_smo_aborts_total", "Maintenance actions abandoned, by action and cause.", "counter")
	for _, v := range []struct {
		action, cause string
		n             uint64
	}{
		{"post", "dx", s.PostsAbortDX},
		{"post", "dd", s.PostsAbortDD},
		{"post", "identity", s.PostsAbortID},
		{"delete", "dx", s.DeleteAbortDX},
		{"delete", "dd", 0}, // consolidation never aborts on D_D; kept for a stable series set
		{"delete", "identity", s.DeleteAbortID},
		{"delete", "edge", s.DeleteAbortEdge},
	} {
		p.printf("blinktree_smo_aborts_total{action=%q,cause=%q} %d\n", v.action, v.cause, v.n)
	}

	p.header("blinktree_smo_skips_total", "Consolidations skipped (victim refilled or does not fit).", "counter")
	p.printf("blinktree_smo_skips_total %d\n", s.DeleteSkipFit)

	p.header("blinktree_scheduler_total", "Maintenance scheduler activity.", "counter")
	for _, v := range []struct {
		event string
		n     uint64
	}{
		{"enqueued_post", s.PostsEnqueued}, {"enqueued_delete", s.DeletesEnqueued},
		{"processed", s.TodoProcessed}, {"requeued", s.PostsRequeued},
		{"dedup_hit", s.TodoDedupHits}, {"drain_bailout", s.DrainBailouts},
	} {
		p.printf("blinktree_scheduler_total{event=%q} %d\n", v.event, v.n)
	}

	p.header("blinktree_append_fastpath_total", "Right-edge append fast-path outcomes.", "counter")
	p.printf("blinktree_append_fastpath_total{event=\"hit\"} %d\n", s.AppendFastHits)
	p.printf("blinktree_append_fastpath_total{event=\"miss\"} %d\n", s.AppendFastMisses)

	p.header("blinktree_bulkload_total", "Bulk-load build activity.", "counter")
	p.printf("blinktree_bulkload_total{event=\"pages\"} %d\n", s.BulkLoadPages)
	p.printf("blinktree_bulkload_total{event=\"chunks\"} %d\n", s.BulkLoadChunks)

	p.header("blinktree_txn_total", "Transaction outcomes and §2.4 lock/latch interaction.", "counter")
	for _, v := range []struct {
		event string
		n     uint64
	}{
		{"commit", s.TxnCommits}, {"abort", s.TxnAborts},
		{"abort_dx", s.TxnAbortsDX}, {"deadlock", s.TxnDeadlocks},
		{"nowait_denied", s.NoWaitDenied}, {"relatch", s.Relatches},
		{"relatch_fast", s.RelatchFast},
	} {
		p.printf("blinktree_txn_total{event=%q} %d\n", v.event, v.n)
	}

	p.header("blinktree_latch_acquire_total", "Granted latch requests by mode.", "counter")
	p.printf("blinktree_latch_acquire_total{mode=\"shared\"} %d\n", m.Latch.AcquireShared)
	p.printf("blinktree_latch_acquire_total{mode=\"update\"} %d\n", m.Latch.AcquireUpdate)
	p.printf("blinktree_latch_acquire_total{mode=\"exclusive\"} %d\n", m.Latch.AcquireExclusive)
	p.header("blinktree_latch_waits_total", "Blocking latch acquisitions.", "counter")
	p.printf("blinktree_latch_waits_total %d\n", m.Latch.Waits)
	p.header("blinktree_latch_wait_seconds_total", "Total time spent blocked on latches.", "counter")
	p.printf("blinktree_latch_wait_seconds_total %g\n", float64(m.Latch.WaitNanos)/1e9)
	p.header("blinktree_latch_long_waits_total", "Latch waits at or above the configured threshold.", "counter")
	p.printf("blinktree_latch_long_waits_total %d\n", m.Latch.LongWaits)
	p.header("blinktree_latch_try_failures_total", "TryAcquire refusals.", "counter")
	p.printf("blinktree_latch_try_failures_total %d\n", m.Latch.TryFailures)

	p.header("blinktree_lock_total", "Record lock manager activity.", "counter")
	for _, v := range []struct {
		event string
		n     uint64
	}{
		{"grant", m.Locks.Grants}, {"immediate", m.Locks.ImmediateOK},
		{"nowait_denied", m.Locks.NoWaitDenials}, {"wait", m.Locks.Waits},
		{"deadlock", m.Locks.Deadlocks},
	} {
		p.printf("blinktree_lock_total{event=%q} %d\n", v.event, v.n)
	}

	p.header("blinktree_pool_total", "Buffer pool activity.", "counter")
	for _, v := range []struct {
		event string
		n     uint64
	}{
		{"hit", m.Pool.Hits}, {"miss", m.Pool.Misses},
		{"eviction", m.Pool.Evictions}, {"writeback", m.Pool.WriteBacks},
	} {
		p.printf("blinktree_pool_total{event=%q} %d\n", v.event, v.n)
	}
	p.header("blinktree_pool_resident_pages", "Pages resident in the buffer pool.", "gauge")
	p.printf("blinktree_pool_resident_pages %d\n", m.Pool.Resident)

	p.header("blinktree_store_total", "Page store I/O.", "counter")
	for _, v := range []struct {
		event string
		n     uint64
	}{
		{"read", m.Store.Reads}, {"write", m.Store.Writes},
		{"alloc", m.Store.Allocs}, {"dealloc", m.Store.Deallocs},
	} {
		p.printf("blinktree_store_total{event=%q} %d\n", v.event, v.n)
	}
	p.header("blinktree_store_live_pages", "Currently allocated pages.", "gauge")
	p.printf("blinktree_store_live_pages %d\n", m.Store.LivePages)

	p.header("blinktree_wal_total", "Write-ahead log activity.", "counter")
	p.printf("blinktree_wal_total{event=\"append\"} %d\n", m.LogAppends)
	p.printf("blinktree_wal_total{event=\"force\"} %d\n", m.LogForces)
	p.header("blinktree_wal_first_change_images_total", "Page images logged with a page's first change after a checkpoint.", "counter")
	p.printf("blinktree_wal_first_change_images_total %d\n", s.FirstChangeImages)

	g := m.WALGroup
	p.header("blinktree_wal_group_total", "Commit path activity: commits acknowledged after a force, forces that covered waiting commits, immediate acks (periodic/async).", "counter")
	p.printf("blinktree_wal_group_total{event=\"commit\"} %d\n", g.Commits)
	p.printf("blinktree_wal_group_total{event=\"immediate_ack\"} %d\n", g.ImmediateAcks)
	p.printf("blinktree_wal_group_total{event=\"force\"} %d\n", g.Forces)
	p.header("blinktree_wal_group_batch_max", "Largest number of commits acknowledged by one coalesced force.", "gauge")
	p.printf("blinktree_wal_group_batch_max %d\n", g.MaxBatch)

	p.header("blinktree_height", "Current root level.", "gauge")
	p.printf("blinktree_height %d\n", m.Height)

	// Recovery counters are fixed at open time; exporting them as a stable
	// series set lets dashboards alert on torn pages or a whole-log read
	// after a crash-restart.
	rs := m.Recovery
	p.header("blinktree_recovered", "1 when the last open replayed a log, 0 for a fresh start.", "gauge")
	recovered := 0
	if rs.Recovered {
		recovered = 1
	}
	p.printf("blinktree_recovered %d\n", recovered)
	p.header("blinktree_recovery_total", "Work performed by crash recovery at the last open.", "counter")
	for _, v := range []struct {
		event string
		n     int
	}{
		{"records_scanned", rs.RecordsScanned},
		{"log_bytes_read", int(rs.LogBytesRead)},
		{"smo_redone", rs.SMOsRedone},
		{"recop_redone", rs.RecOpsRedone},
		{"skipped_by_lsn", rs.SkippedByLSN},
		{"images_applied", rs.ImagesApplied},
		{"allocs_replayed", rs.AllocsReplayed},
		{"deallocs_replayed", rs.DeallocsReplayed},
		{"bulk_chunks_skipped", rs.BulkChunksSkipped},
		{"losers_undone", rs.LosersUndone},
		{"corrupt_pages", rs.CorruptPages},
	} {
		p.printf("blinktree_recovery_total{event=%q} %d\n", v.event, v.n)
	}
	p.header("blinktree_recovery_restart_lsn", "LSN of the first log record the last open read: a checkpoint's, or 1.", "gauge")
	p.printf("blinktree_recovery_restart_lsn %d\n", rs.RestartLSN)
	p.header("blinktree_recovery_full_log_read", "Whether the last open read the whole log, with the reason as a label.", "gauge")
	if rs.FullLogRead != "" {
		p.printf("blinktree_recovery_full_log_read{reason=%q} 1\n", rs.FullLogRead)
	}
	p.header("blinktree_recovery_torn_tail_bytes", "Trailing bytes past the last valid WAL frame at the last open.", "gauge")
	p.printf("blinktree_recovery_torn_tail_bytes %d\n", rs.TornTailBytes)

	if m.Obs != nil {
		p.header("blinktree_op_latency_seconds", "Operation latency by class.", "histogram")
		for op := obs.OpSearch; op < obs.OpCount; op++ {
			p.hist("blinktree_op_latency_seconds", "op", op.String(), m.Obs.Ops[op])
		}
		p.header("blinktree_action_latency_seconds", "Maintenance action processing latency by kind.", "histogram")
		for a := obs.ActPost; a < obs.ActCount; a++ {
			p.hist("blinktree_action_latency_seconds", "action", a.String(), m.Obs.Actions[a])
		}
		p.header("blinktree_io_latency_seconds", "Buffer pool and WAL I/O latency.", "histogram")
		p.hist("blinktree_io_latency_seconds", "io", "page_load", m.Obs.PageLoad)
		p.hist("blinktree_io_latency_seconds", "io", "writeback", m.Obs.WriteBack)
		p.hist("blinktree_io_latency_seconds", "io", "log_append", m.Obs.LogAppend)
		p.hist("blinktree_io_latency_seconds", "io", "log_flush", m.Obs.LogFlush)
		p.header("blinktree_lock_wait_seconds", "Blocking record-lock wait latency.", "histogram")
		p.hist("blinktree_lock_wait_seconds", "", "", m.Obs.LockWait)
		p.header("blinktree_wal_group_force_seconds", "Wall time of one log force that covered waiting commits.", "histogram")
		p.hist("blinktree_wal_group_force_seconds", "", "", m.Obs.GroupForce)
		p.header("blinktree_wal_group_ack_seconds", "Delay from Commit to its acknowledgement after the covering force.", "histogram")
		p.hist("blinktree_wal_group_ack_seconds", "", "", m.Obs.GroupAck)
		p.header("blinktree_wal_group_batch_commits", "Commits per counted coalesced force (sum over count).", "counter")
		p.printf("blinktree_wal_group_batch_commits{stat=\"sum\"} %d\n", m.Obs.GroupBatchSum)
		p.printf("blinktree_wal_group_batch_commits{stat=\"count\"} %d\n", m.Obs.GroupBatchCount)

		p.header("blinktree_trace_events_total", "Trace events emitted and dropped by the bounded ring.", "counter")
		p.printf("blinktree_trace_events_total{state=\"emitted\"} %d\n", m.Obs.TraceSeq)
		p.printf("blinktree_trace_events_total{state=\"dropped\"} %d\n", m.Obs.TraceDropped)

		p.header("blinktree_stage_latency_seconds", "Per-stage time within sampled operation spans.", "histogram")
		for st := obs.SpanStage(0); st < obs.StageCount; st++ {
			p.hist("blinktree_stage_latency_seconds", "stage", st.String(), m.Obs.SpanStages[st])
		}
		p.header("blinktree_spans_total", "Sampled spans and slow-op flight-recorder captures.", "counter")
		p.printf("blinktree_spans_total{event=\"sampled\"} %d\n", m.Obs.SpansSampled)
		p.printf("blinktree_spans_total{event=\"slow\"} %d\n", m.Obs.SlowOps)
		p.header("blinktree_slow_op_threshold_seconds", "Current slow-op flight-recorder threshold.", "gauge")
		p.printf("blinktree_slow_op_threshold_seconds %g\n", float64(m.Obs.SlowOpThresholdNS)/1e9)
	}

	return p.err
}
