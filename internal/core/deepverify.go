package core

import (
	"fmt"

	"blinktree/internal/page"
)

// DeepReport summarizes what VerifyDeep examined: the structural audit's
// coverage plus the store- and log-level facts an operator triaging a
// suspect directory wants to see.
type DeepReport struct {
	// Height is the root level; NodesPerLevel counts chain-reachable nodes
	// from the leaf level (index 0) up to the root.
	Height        int
	NodesPerLevel []int

	// Records is the total record count across the leaf chain.
	Records int

	// LivePages is the store's allocated-page count; ReachablePages how
	// many of them the tree's chains reach. A clean tree has them equal.
	LivePages      int
	ReachablePages int

	// DDCarriers counts nodes with a nonzero data-delete state D_D. Only
	// level-1 nodes (parents of data nodes) legitimately carry one.
	DDCarriers int

	// WALRecords, WALFirstLSN and WALLastLSN summarize the durable log;
	// LSNs are dense, so WALLastLSN-WALFirstLSN+1 == WALRecords. Zero
	// values when the tree has no log.
	WALRecords  int
	WALFirstLSN uint64
	WALLastLSN  uint64

	// TailTorn/TailTornBytes report the log device's torn-tail
	// observation: garbage past the last valid frame, left by a crash.
	// A torn tail is not a violation — the torn frame was never durable.
	TailTorn      bool
	TailTornBytes int64
}

// VerifyDeep runs Verify plus the deep audits the blinkcheck -deep tool
// exposes, on a quiescent tree:
//
//   - the full structural check (fences, side chains, index terms, key
//     order across the leaf chain — see Verify);
//   - a whole-store page scan: every allocated page must deserialize
//     (checksum-clean), carry its own page ID, and be reachable from the
//     tree's level chains — an unreachable allocated page is a leak;
//   - a delete-state audit: a nonzero D_D may appear only on level-1
//     nodes, the parents of data nodes (paper §4: D_D counts data-node
//     deletes below that parent);
//   - WAL tail sanity: durable records must have dense, strictly
//     ascending LSNs starting at 1, and a torn tail, if any, is reported.
//
// It returns the report and the first violation found (report is non-nil
// even on error, reflecting what was audited before the violation).
func (t *Tree) VerifyDeep() (*DeepReport, error) {
	rep := &DeepReport{}
	if err := t.Verify(); err != nil {
		return rep, err
	}

	// Walk every level chain, collecting the reachable page set.
	reachable := make(map[page.PageID]uint8)
	rootID, rootLevel := t.readAnchor()
	rep.Height = int(rootLevel)
	rep.NodesPerLevel = make([]int, int(rootLevel)+1)
	leftmost := rootID
	for lvl := int(rootLevel); lvl >= 0; lvl-- {
		id := leftmost
		next := page.PageID(0)
		for id != 0 {
			n, err := t.fetch(id)
			if err != nil {
				return rep, fmt.Errorf("verify-deep: level %d fetch %d: %w", lvl, id, err)
			}
			reachable[id] = uint8(lvl)
			rep.NodesPerLevel[lvl]++
			if n.c().DD != 0 {
				rep.DDCarriers++
				if lvl != 1 {
					t.unpin(n)
					return rep, fmt.Errorf("verify-deep: node %d at level %d carries D_D=%d; only level-1 nodes (data-node parents) may", id, lvl, n.c().DD)
				}
			}
			if lvl == 0 {
				rep.Records += n.c().Recs.Len()
			}
			if lvl > 0 && next == 0 {
				next = n.c().Recs.Child(0)
			}
			right := n.c().Right
			t.unpin(n)
			id = right
		}
		leftmost = next
	}
	rep.ReachablePages = len(reachable)

	// Whole-store scan: every allocated page must deserialize cleanly,
	// name itself, and be reachable.
	st := t.store.Stats()
	rep.LivePages = st.LivePages
	for id := page.PageID(1); id <= st.HighestPage; id++ {
		if !t.store.Allocated(id) {
			continue
		}
		n, err := t.fetch(id)
		if err != nil {
			return rep, fmt.Errorf("verify-deep: allocated page %d does not deserialize: %w", id, err)
		}
		selfID := n.c().ID
		t.unpin(n)
		if selfID != id {
			return rep, fmt.Errorf("verify-deep: page %d names itself %d", id, selfID)
		}
		if _, ok := reachable[id]; !ok {
			return rep, fmt.Errorf("verify-deep: allocated page %d is unreachable (leaked)", id)
		}
	}

	// WAL tail sanity: dense, strictly ascending LSNs; report the torn
	// tail if the device saw one.
	if t.log != nil {
		recs, err := t.log.DurableRecords()
		if err != nil {
			return rep, fmt.Errorf("verify-deep: reading log: %w", err)
		}
		rep.WALRecords = len(recs)
		for i, r := range recs {
			if i == 0 {
				rep.WALFirstLSN = uint64(r.LSN)
				if r.LSN != 1 {
					return rep, fmt.Errorf("verify-deep: log starts at LSN %d, want 1", r.LSN)
				}
				continue
			}
			if r.LSN != recs[i-1].LSN+1 {
				return rep, fmt.Errorf("verify-deep: LSN gap: %d follows %d", r.LSN, recs[i-1].LSN)
			}
		}
		if len(recs) > 0 {
			rep.WALLastLSN = uint64(recs[len(recs)-1].LSN)
		}
		rep.TailTorn, rep.TailTornBytes = t.log.TailTorn()
	}
	return rep, nil
}
