package core

// Span plumbing: the hot-path helpers that attribute a sampled operation's
// time to stages (buffer fetch vs page load, shared vs exclusive latch
// waits, WAL append, commit park/force). Every helper degrades to the
// plain uninstrumented call when the operation carries no span, so the
// unsampled path pays one predictable nil check per site.

import (
	"time"

	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// latchStage maps a latch mode onto its span stage: shared acquisitions are
// reader waits; update/exclusive acquisitions are writer-intent waits.
func latchStage(m latch.Mode) obs.SpanStage {
	if m == latch.Shared {
		return obs.StageLatchS
	}
	return obs.StageLatchX
}

// fetchSpan is fetch with stage attribution: hit time goes to buf-fetch,
// miss time (store read + decode) to page-load. Level is unknown here — the
// node cannot be inspected until latched — so intervals record level 0.
func (t *Tree) fetchSpan(id page.PageID, sp *obs.Span) (*node, error) {
	if sp == nil {
		return t.fetch(id)
	}
	t0 := time.Now()
	obj, miss, err := t.pool.FetchMiss(id)
	st := obs.StageBufFetch
	if miss {
		st = obs.StagePageLoad
	}
	sp.StageSince(st, 0, t0)
	if err != nil {
		return nil, err
	}
	return obj.(*node), nil
}

// pinLatchSpan is pinLatch with stage attribution: the fetch and the latch
// acquisition are timed into their own stages. The level on the latch
// interval is read under the latch, so it is exact.
func (t *Tree) pinLatchSpan(id page.PageID, m latch.Mode, sp *obs.Span) (*node, error) {
	if sp == nil {
		return t.pinLatch(id, m)
	}
	n, err := t.fetchSpan(id, sp)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	n.latch.Acquire(m)
	sp.StageSince(latchStage(m), n.level(), t0)
	return n, nil
}

// commitLSN acknowledges a commit record per the durability mode; with a
// span it uses the traced variant so the wait for the covering force and
// the force itself land on the committing operation's span.
func (t *Tree) commitLSN(lsn wal.LSN, sp *obs.Span) error {
	if sp == nil {
		return t.log.Commit(lsn)
	}
	return t.log.CommitTraced(lsn, sp.StageCommit)
}

// Spans returns the sampled-span ring's contents, oldest first; nil when
// span sampling is disabled.
func (t *Tree) Spans() []obs.OpTrace { return t.obs.Spans() }

// SlowSpans returns the slow-op flight recorder's contents, oldest first;
// nil when span sampling is disabled.
func (t *Tree) SlowSpans() []obs.OpTrace { return t.obs.SlowSpans() }
