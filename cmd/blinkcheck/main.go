// Command blinkcheck opens a durable blinktree directory, recovers it,
// verifies every structural invariant, and reports summary statistics.
//
// Usage:
//
//	blinkcheck -path /data/mytree [-pagesize 4096] [-deep]
//
// -deep additionally runs the whole-store audit: every allocated page must
// checksum-verify and be reachable from the tree (leaks fail), delete-state
// counters must sit only where the paper allows them, and the write-ahead
// log must have a dense LSN sequence. It also prints what recovery did to
// bring the tree up — redo/undo work, torn pages healed, torn log tail
// discarded — which is the first thing to read when triaging a directory
// salvaged from a crash (see OPERATIONS.md).
//
// Exit status 0 means the tree recovered and verified clean.
package main

import (
	"flag"
	"fmt"
	"os"

	"blinktree"
	"blinktree/internal/buildinfo"
	"blinktree/internal/wal"
)

func main() {
	var (
		path       = flag.String("path", "", "tree directory (pages.db + wal.log)")
		pageSize   = flag.Int("pagesize", 4096, "page size the tree was created with")
		deep       = flag.Bool("deep", false, "run the deep audit: page scan, D_D placement, WAL tail")
		durability = flag.String("durability", "sync", "durability mode to open with: sync, periodic or async; group is a deprecated spelling of sync (recovery is identical in every mode)")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "blinkcheck: -path is required")
		os.Exit(2)
	}
	mode, err := blinktree.ParseDurabilityMode(*durability)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blinkcheck: %v\n", err)
		os.Exit(2)
	}
	tr, err := blinktree.Open(blinktree.Options{Path: *path, PageSize: *pageSize, Workers: -1, Durability: mode})
	if err != nil {
		fmt.Fprintf(os.Stderr, "blinkcheck: open/recover: %v\n", err)
		os.Exit(1)
	}
	defer tr.Close()

	rs := tr.RecoveryStats()
	if rs.Recovered {
		fmt.Printf("recovery: scanned %d log records, redo from LSN %d: %d SMOs, %d record ops (%d skipped by page LSN)\n",
			rs.RecordsScanned, rs.RedoStart, rs.SMOsRedone, rs.RecOpsRedone, rs.SkippedByLSN)
		if rs.FullLogRead != "" {
			fmt.Printf("recovery: read the whole log (%d bytes): %s\n", rs.LogBytesRead, rs.FullLogRead)
		}
		if rs.FullLogRead == wal.WhyBadMaster {
			fmt.Fprintln(os.Stderr, "blinkcheck: wal.log.ckpt is not this log's master record")
			os.Exit(1)
		}
		if rs.LosersUndone > 0 {
			fmt.Printf("recovery: rolled back %d uncommitted transactions\n", rs.LosersUndone)
		}
		if rs.CorruptPages > 0 {
			fmt.Printf("recovery: healed %d torn/corrupt pages from images in the redo window\n", rs.CorruptPages)
		}
		if rs.TornTail {
			fmt.Printf("recovery: discarded torn log tail (%d trailing bytes past last valid frame)\n",
				rs.TornTailBytes)
		}
	}

	if *deep {
		rep, err := tr.VerifyDeep()
		if err != nil {
			fmt.Fprintf(os.Stderr, "blinkcheck: DEEP AUDIT FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ok: deep audit clean\n")
		fmt.Printf("records: %d\nheight:  %d\n", rep.Records, rep.Height)
		for lvl := len(rep.NodesPerLevel) - 1; lvl >= 0; lvl-- {
			fmt.Printf("level %d: %d nodes\n", lvl, rep.NodesPerLevel[lvl])
		}
		fmt.Printf("pages: %d live, %d reachable (no leaks)\n", rep.LivePages, rep.ReachablePages)
		fmt.Printf("delete state: %d level-1 nodes carry a nonzero D_D\n", rep.DDCarriers)
		if rep.WALRecords > 0 {
			fmt.Printf("wal: %d records, LSN %d..%d (dense)\n", rep.WALRecords, rep.WALFirstLSN, rep.WALLastLSN)
		} else {
			fmt.Printf("wal: empty\n")
		}
		if rep.TailTorn {
			fmt.Printf("wal: torn tail, %d trailing bytes (discarded by recovery; harmless)\n", rep.TailTornBytes)
		}
		return
	}

	if err := tr.Verify(); err != nil {
		fmt.Fprintf(os.Stderr, "blinkcheck: INVARIANT VIOLATION: %v\n", err)
		os.Exit(1)
	}
	n, err := tr.Len()
	if err != nil {
		fmt.Fprintf(os.Stderr, "blinkcheck: counting records: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ok: tree verified clean\n")
	fmt.Printf("records: %d\nheight:  %d\n", n, tr.Height())
	s := tr.Stats()
	fmt.Printf("splits since open: %d, consolidations: %d\n",
		s.Splits, s.LeafConsolidated+s.IndexConsolidated)
}
