// Command blinkdump renders the physical structure of a durable blinktree
// (every node, level by level, with fence keys, side pointers and D_D
// counters) and/or its write-ahead log records.
//
// Usage:
//
//	blinkdump -path /data/mytree            # tree structure
//	blinkdump -path /data/mytree -wal       # log records instead, then a
//	                                        # per-kind summary of the log's bytes
//	blinkdump -path /data/mytree -wal -tree # both
//	blinkdump -trace events.jsonl           # render a trace dump ("-" = stdin)
//	blinkdump -spans trace.json             # tail-latency attribution from a
//	                                        # span capture ("-" = stdin)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"blinktree/internal/buildinfo"
	"blinktree/internal/core"
	"blinktree/internal/obs"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

func main() {
	var (
		path      = flag.String("path", "", "tree directory (pages.db + wal.log)")
		pageSize  = flag.Int("pagesize", 4096, "page size the tree was created with")
		dumpWAL   = flag.Bool("wal", false, "dump write-ahead log records")
		dumpTree  = flag.Bool("tree", false, "dump tree structure (default unless -wal)")
		traceFile = flag.String("trace", "", "render a JSON Lines trace dump (blinkmetrics ?format=trace or blinkbench -lat -trace); \"-\" reads stdin")
		spansFile = flag.String("spans", "", "render the tail-latency attribution table from a Chrome trace-event span capture (blinkmetrics ?format=spans or blinkbench -spansout); \"-\" reads stdin")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	if *traceFile != "" {
		if err := dumpTrace(*traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "blinkdump: %v\n", err)
			os.Exit(1)
		}
	}
	if *spansFile != "" {
		if err := dumpSpans(*spansFile); err != nil {
			fmt.Fprintf(os.Stderr, "blinkdump: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceFile != "" || *spansFile != "" {
		if *path == "" {
			return
		}
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "blinkdump: -path, -trace or -spans is required")
		os.Exit(2)
	}
	if !*dumpWAL {
		*dumpTree = true
	}

	if *dumpWAL {
		dev, err := wal.OpenFileDevice(filepath.Join(*path, "wal.log"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "blinkdump: %v\n", err)
			os.Exit(1)
		}
		log, err := wal.NewLog(dev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blinkdump: %v\n", err)
			os.Exit(1)
		}
		recs, err := log.DurableRecords()
		if err != nil {
			fmt.Fprintf(os.Stderr, "blinkdump: %v\n", err)
			os.Exit(1)
		}
		rs, _ := log.Restart()
		fmt.Printf("-- master record: position %d, LSN %d, valid %t %s --\n", rs.Master.Pos, rs.Master.LSN, rs.Why == "", rs.Why)
		fmt.Printf("-- write-ahead log: %d records --\n", len(recs))
		for _, r := range recs {
			if rs.Why == "" && r.LSN == rs.Master.LSN {
				fmt.Println("-- restart point --")
			}
			fmt.Println(r)
		}
		printWALSummary(recs)
		dev.Close()
	}

	if *dumpTree {
		store, err := storage.OpenFileStore(filepath.Join(*path, "pages.db"), *pageSize)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blinkdump: %v\n", err)
			os.Exit(1)
		}
		dev, err := wal.OpenFileDevice(filepath.Join(*path, "wal.log"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "blinkdump: %v\n", err)
			os.Exit(1)
		}
		defer dev.Close()
		tr, err := core.New(core.Options{
			PageSize: *pageSize, Store: store, LogDevice: dev,
			Workers: core.WorkersNone,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "blinkdump: recover: %v\n", err)
			os.Exit(1)
		}
		defer tr.Close()
		fmt.Println("-- tree structure --")
		if err := tr.Dump(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "blinkdump: %v\n", err)
			os.Exit(1)
		}
	}
}

// printWALSummary ends the -wal listing with what the log is made of: per
// record type (SMO kind for structure modifications) the records, their
// framed bytes and how many of those bytes are page images.
func printWALSummary(recs []*wal.Record) {
	type row struct{ records, bytes, images int }
	rows := map[string]*row{}
	var kinds []string
	var total row
	for _, r := range recs {
		kind := r.Type.String()
		if r.Type == wal.TSMO {
			kind += " " + r.SMO.String()
		}
		w := rows[kind]
		if w == nil {
			w = &row{}
			rows[kind] = w
			kinds = append(kinds, kind)
		}
		n, img := 8+len(r.Encode()), 0 // 8: the frame's length and checksum
		for _, im := range r.Images {
			img += len(im.Data)
		}
		for _, x := range []*row{w, &total} {
			x.records++
			x.bytes += n
			x.images += img
		}
	}
	sort.Strings(kinds)
	fmt.Println("-- log by kind --")
	fmt.Printf("%-18s %10s %14s %14s\n", "kind", "records", "bytes", "image bytes")
	for _, k := range append(kinds, "total") {
		w := &total
		if k != "total" {
			w = rows[k]
		}
		fmt.Printf("%-18s %10d %14d %14d\n", k, w.records, w.bytes, w.images)
	}
}

// dumpTrace renders a JSON Lines trace dump human-readably.
func dumpTrace(name string) error {
	var r io.Reader = os.Stdin
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ReadTrace(r)
	if err != nil {
		return err
	}
	fmt.Printf("-- trace: %d events --\n", len(events))
	for _, e := range events {
		fmt.Println(obs.FormatEvent(e))
	}
	return nil
}

// dumpSpans reads a Chrome trace-event span capture and prints the
// tail-latency attribution table.
func dumpSpans(name string) error {
	var r io.Reader = os.Stdin
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spans, err := obs.ReadChromeTrace(r)
	if err != nil {
		return err
	}
	return obs.WriteAttribution(os.Stdout, spans)
}
