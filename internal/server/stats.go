package server

import (
	"fmt"
	"io"
	"sync/atomic"

	"blinktree/internal/obs"
)

// serverStats holds the server's own counters, kept separate from the
// tree's metrics: the tree counts B-tree work, these count wire work.
// Per-verb arrays are indexed by verb.idx (sorted verb-name order).
type serverStats struct {
	accepted    atomic.Uint64
	rejected    atomic.Uint64
	open        atomic.Uint64
	idleClosed  atomic.Uint64
	protoErrors atomic.Uint64
	unknown     atomic.Uint64

	commands    [verbCount]atomic.Uint64
	verbLatency [verbCount]obs.Histogram

	txnBegins        atomic.Uint64
	txnCommits       atomic.Uint64
	txnAborts        atomic.Uint64
	disconnectAborts atomic.Uint64

	pipelineMaxDepth atomic.Uint64
	pipelineDepthSum atomic.Uint64
	pipelineDepthObs atomic.Uint64
}

// verbCount is the number of registered wire verbs; the dispatch table in
// server.go is the source of truth and init panics on a mismatch.
const verbCount = 9

func init() {
	if len(verbs) != verbCount {
		panic(fmt.Sprintf("server: verbCount %d does not match dispatch table (%d verbs)", verbCount, len(verbs)))
	}
}

// noteDepth records one pipeline-depth sample: the number of replies that
// left in one flush.
func (st *serverStats) noteDepth(d uint64) {
	st.pipelineDepthSum.Add(d)
	st.pipelineDepthObs.Add(1)
	for {
		cur := st.pipelineMaxDepth.Load()
		if d <= cur || st.pipelineMaxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of the server's wire-level counters,
// as exposed on the admin port (blinktree_server_* series) and via INFO.
type Stats struct {
	// Open is the current connection count; Accepted and Rejected are
	// lifetime totals (Rejected counts over-limit accepts).
	Open     uint64
	Accepted uint64
	Rejected uint64
	// IdleClosed counts connections closed by the idle timeout.
	IdleClosed uint64
	// ProtoErrors counts connections dropped for malformed framing.
	ProtoErrors uint64
	// Unknown counts commands whose verb was not in the dispatch table.
	Unknown uint64

	// Commands maps each registered verb to its dispatch count; VerbLatency
	// maps it to the execution-latency histogram (parse-to-reply-encoded).
	Commands    map[string]uint64
	VerbLatency map[string]obs.HistogramSnapshot

	// TxnBegins/TxnCommits/TxnAborts count session transaction outcomes;
	// DisconnectAborts counts transactions rolled back because their
	// connection vanished mid-flight.
	TxnBegins        uint64
	TxnCommits       uint64
	TxnAborts        uint64
	DisconnectAborts uint64

	// PipelineMaxDepth is the most replies any connection sent in one
	// flush — the pipelining the server saw; PipelineDepthSum over
	// PipelineDepthObs (one sample per flush) is the mean.
	PipelineMaxDepth uint64
	PipelineDepthSum uint64
	PipelineDepthObs uint64
}

// Stats snapshots the server's wire-level counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Open:             s.stats.open.Load(),
		Accepted:         s.stats.accepted.Load(),
		Rejected:         s.stats.rejected.Load(),
		IdleClosed:       s.stats.idleClosed.Load(),
		ProtoErrors:      s.stats.protoErrors.Load(),
		Unknown:          s.stats.unknown.Load(),
		Commands:         make(map[string]uint64, verbCount),
		VerbLatency:      make(map[string]obs.HistogramSnapshot, verbCount),
		TxnBegins:        s.stats.txnBegins.Load(),
		TxnCommits:       s.stats.txnCommits.Load(),
		TxnAborts:        s.stats.txnAborts.Load(),
		DisconnectAborts: s.stats.disconnectAborts.Load(),
		PipelineMaxDepth: s.stats.pipelineMaxDepth.Load(),
		PipelineDepthSum: s.stats.pipelineDepthSum.Load(),
		PipelineDepthObs: s.stats.pipelineDepthObs.Load(),
	}
	for _, name := range verbNames {
		idx := verbs[name].idx
		st.Commands[name] = s.stats.commands[idx].Load()
		st.VerbLatency[name] = s.stats.verbLatency[idx].Snapshot()
	}
	return st
}

// CommandCount returns one verb's dispatch count (zero for an unregistered
// verb). Tests poll it to detect that a command has started executing.
func (s *Server) CommandCount(verbName string) uint64 {
	v, ok := verbs[verbName]
	if !ok {
		return 0
	}
	return s.stats.commands[v.idx].Load()
}

// WritePrometheus appends the blinktree_server_* series for st in
// Prometheus text exposition format. It complements (and is normally
// concatenated after) blinkmetrics.WritePrometheus's tree series.
func (st Stats) WritePrometheus(w io.Writer) error {
	p := obs.NewPromWriter(w)
	p.Header("blinktree_server_connections", "Currently open client connections.", "gauge")
	p.Line("blinktree_server_connections", "", st.Open)
	p.Header("blinktree_server_connections_total", "Connection lifecycle events.", "counter")
	p.Line("blinktree_server_connections_total", `event="accepted"`, st.Accepted)
	p.Line("blinktree_server_connections_total", `event="rejected"`, st.Rejected)
	p.Line("blinktree_server_connections_total", `event="idle_closed"`, st.IdleClosed)
	p.Line("blinktree_server_connections_total", `event="proto_error"`, st.ProtoErrors)
	p.Header("blinktree_server_commands_total", "Commands dispatched by verb.", "counter")
	for _, name := range verbNames {
		p.Line("blinktree_server_commands_total", `verb="`+name+`"`, st.Commands[name])
	}
	p.Line("blinktree_server_commands_total", `verb="UNKNOWN"`, st.Unknown)
	p.Header("blinktree_server_txn_total", "Session transaction outcomes.", "counter")
	p.Line("blinktree_server_txn_total", `event="begin"`, st.TxnBegins)
	p.Line("blinktree_server_txn_total", `event="commit"`, st.TxnCommits)
	p.Line("blinktree_server_txn_total", `event="abort"`, st.TxnAborts)
	p.Line("blinktree_server_txn_total", `event="disconnect_abort"`, st.DisconnectAborts)
	p.Header("blinktree_server_pipeline_depth_max", "Most replies sent in one flush.", "gauge")
	p.Line("blinktree_server_pipeline_depth_max", "", st.PipelineMaxDepth)
	p.Header("blinktree_server_pipeline_depth_sum", "Sum of replies-per-flush samples (one per flush).", "counter")
	p.Line("blinktree_server_pipeline_depth_sum", "", st.PipelineDepthSum)
	p.Header("blinktree_server_pipeline_depth_count", "Number of replies-per-flush samples.", "counter")
	p.Line("blinktree_server_pipeline_depth_count", "", st.PipelineDepthObs)
	p.Header("blinktree_server_verb_latency_seconds", "Command execution latency by verb.", "histogram")
	for _, name := range verbNames {
		p.Hist("blinktree_server_verb_latency_seconds", "verb", name, st.VerbLatency[name])
	}
	return p.Err()
}

// ExpvarDoc builds the "server" JSON sub-document the admin handler merges
// into the expvar view next to the tree's metrics.
func (st Stats) ExpvarDoc() map[string]any {
	commands := make(map[string]any, verbCount+1)
	latency := make(map[string]any, verbCount)
	for _, name := range verbNames {
		commands[name] = st.Commands[name]
		h := st.VerbLatency[name]
		latency[name] = map[string]any{
			"count":   h.Count,
			"mean_ns": int64(h.Mean()),
			"p99_ns":  int64(h.Quantile(0.99)),
		}
	}
	commands["UNKNOWN"] = st.Unknown
	return map[string]any{
		"connections": map[string]any{
			"open":        st.Open,
			"accepted":    st.Accepted,
			"rejected":    st.Rejected,
			"idle_closed": st.IdleClosed,
			"proto_error": st.ProtoErrors,
		},
		"commands":     commands,
		"verb_latency": latency,
		"txns": map[string]any{
			"begun":             st.TxnBegins,
			"committed":         st.TxnCommits,
			"aborted":           st.TxnAborts,
			"disconnect_aborts": st.DisconnectAborts,
		},
		"pipeline": map[string]any{
			"depth_max":   st.PipelineMaxDepth,
			"depth_sum":   st.PipelineDepthSum,
			"depth_count": st.PipelineDepthObs,
		},
	}
}
