package bench

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tiny is the test scale: enough structure activity to exercise every code
// path without slowing the suite.
var tiny = Scale{Preload: 4000, Ops: 8000, Threads: []int{1, 4}}

func renderToTestLog(t *testing.T, tb *Table) {
	t.Helper()
	var buf bytes.Buffer
	tb.Render(&buf)
	t.Log(buf.String())
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestMixString(t *testing.T) {
	m := Mix{Insert: 50, Search: 30, Delete: 20}
	if got := m.String(); got != "i50/s30/d20" {
		t.Fatalf("Mix.String() = %q", got)
	}
	if Uniform.String() != "uniform" || Zipf.String() != "zipf" || Sequential.String() != "sequential" {
		t.Fatal("Dist.String broken")
	}
	if Hotspot.String() != "hotspot" || MovingHotspot.String() != "moving-hotspot" || SeqAppend.String() != "seq-append" {
		t.Fatal("skew Dist.String broken")
	}
	if Dist(9).String() != "dist?" {
		t.Fatal("unknown Dist.String broken")
	}
}

func TestGenDistributions(t *testing.T) {
	for _, d := range []Dist{Uniform, Zipf, Sequential} {
		g := NewGen(Spec{KeySpace: 100, Dist: d, Mix: Mix{Insert: 100}}, 1)
		seen := make(map[int]int)
		for i := 0; i < 1000; i++ {
			k := g.NextKey()
			if k < 0 || k >= 100 {
				t.Fatalf("%v: key %d out of range", d, k)
			}
			seen[k]++
		}
		if d == Sequential {
			if seen[0] != 10 {
				t.Fatalf("sequential wrap: seen[0] = %d, want 10", seen[0])
			}
		}
		if d == Zipf {
			// Skew: the hottest key should dominate.
			if seen[0] < 100 {
				t.Fatalf("zipf not skewed: seen[0] = %d", seen[0])
			}
		}
	}
}

func TestGenHotspot(t *testing.T) {
	g := NewGen(Spec{KeySpace: 1000, Dist: Hotspot, HotKeys: 10, HotFrac: 0.9, Mix: Mix{Insert: 100}}, 3)
	hot := 0
	for i := 0; i < 5000; i++ {
		k := g.NextKey()
		if k < 0 || k >= 1000 {
			t.Fatalf("hotspot key %d out of range", k)
		}
		if k < 10 {
			hot++
		}
	}
	// ~90% of draws must land in the 1% hot set (plus ~1% uniform spill).
	if hot < 4200 {
		t.Fatalf("hot-set mass %d/5000, want >= 4200", hot)
	}
}

func TestGenMovingHotspot(t *testing.T) {
	g := NewGen(Spec{
		KeySpace: 1000, Dist: MovingHotspot,
		HotKeys: 10, HotFrac: 1.0, MovePeriod: 100,
		Mix: Mix{Insert: 100},
	}, 4)
	// First window: draws 1..100 land in [0,10).
	for i := 0; i < 100; i++ {
		if k := g.NextKey(); k >= 10 {
			t.Fatalf("draw %d: key %d outside first window", i, k)
		}
	}
	// Second window: the hot set has drifted to [10,20).
	for i := 0; i < 100; i++ {
		if k := g.NextKey(); k < 10 || k >= 20 {
			t.Fatalf("draw %d: key %d outside drifted window", i, k)
		}
	}
}

func TestGenSeqAppend(t *testing.T) {
	g := NewGen(Spec{KeySpace: 100, Dist: SeqAppend, SeqOffset: 1, SeqStride: 4, Mix: Mix{Insert: 100}}, 5)
	prev := -1
	for i := 0; i < 500; i++ {
		k := g.NextKey()
		if k != 100+1+i*4 {
			t.Fatalf("draw %d: key %d, want %d", i, k, 100+1+i*4)
		}
		if k <= prev {
			t.Fatalf("draw %d: key %d not strictly increasing past %d", i, k, prev)
		}
		prev = k
	}
}

func TestGenMixProportions(t *testing.T) {
	g := NewGen(Spec{KeySpace: 10, Mix: Mix{Insert: 50, Search: 50}}, 2)
	counts := make(map[OpKind]int)
	for i := 0; i < 2000; i++ {
		counts[g.Next().Kind]++
	}
	if counts[OpDelete] != 0 || counts[OpScan] != 0 {
		t.Fatalf("unexpected ops: %v", counts)
	}
	if counts[OpInsert] < 800 || counts[OpSearch] < 800 {
		t.Fatalf("mix skewed: %v", counts)
	}
}

func TestRunAllComparators(t *testing.T) {
	spec := Spec{
		KeySpace: 3000, Preload: 2000, Ops: 4000,
		Mix: Mix{Insert: 30, Search: 40, Delete: 25, Scan: 5},
	}
	for _, cfg := range Comparators(1024, false) {
		res, err := Run(cfg, spec, 4)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.Throughput <= 0 || res.Ops == 0 {
			t.Fatalf("%s: empty result %+v", cfg.Name, res)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Fatalf("%s: utilization %f", cfg.Name, res.Utilization)
		}
	}
}

func TestE1ThroughputShape(t *testing.T) {
	tb, err := E1Throughput(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	if len(tb.Rows) != len(tiny.Threads)*4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The paper's method must split and consolidate under this mix.
	row := tb.FindRow("delete-state")
	if row == nil {
		t.Fatal("no delete-state row")
	}
	if cellFloat(t, row[3]) == 0 {
		t.Fatal("no splits recorded")
	}
}

func TestE2UtilizationShape(t *testing.T) {
	tb, err := E2Utilization(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	ds := tb.FindRow("delete-state")
	dr := tb.FindRow("drain")
	if ds == nil || dr == nil {
		t.Fatal("missing rows")
	}
	// The headline claim: drain strands more pages and lower fill.
	if cellFloat(t, dr[1]) <= cellFloat(t, ds[1]) {
		t.Fatalf("drain live pages (%s) not worse than delete-state (%s)", dr[1], ds[1])
	}
	if cellFloat(t, dr[2]) >= cellFloat(t, ds[2]) {
		t.Fatalf("drain fill (%s) not worse than delete-state (%s)", dr[2], ds[2])
	}
}

func TestE3LoggingShape(t *testing.T) {
	tb, err := E3Logging(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	ds := tb.FindRow("delete-state")
	dr := tb.FindRow("drain")
	if ds == nil || dr == nil {
		t.Fatal("missing rows")
	}
	if cellFloat(t, ds[1]) == 0 || cellFloat(t, dr[1]) == 0 {
		t.Fatal("no consolidations in one of the configs")
	}
	// Drain writes ~2 SMO records per consolidation, delete-state ~1.
	if perDS, perDR := cellFloat(t, ds[5]), cellFloat(t, dr[5]); perDR <= perDS {
		t.Fatalf("drain records/consolidation %f not above delete-state %f", perDR, perDS)
	}
	if cellFloat(t, dr[4]) == 0 {
		t.Fatal("no drain marks logged")
	}
	if cellFloat(t, ds[4]) != 0 {
		t.Fatal("delete-state logged drain marks")
	}
}

func TestE4DeleteStateShape(t *testing.T) {
	tb, err := E4DeleteState(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	leaf := tb.FindRow("leaf node deletes")
	if leaf == nil || cellFloat(t, leaf[1]) == 0 {
		t.Fatal("no leaf deletes measured")
	}
	if frac := tb.FindRow("leaf fraction (%)"); frac != nil {
		if cellFloat(t, frac[1]) < 80 {
			t.Fatalf("leaf delete fraction %s%% — paper claims >99%%, expect at least dominance", frac[1])
		}
	}
	if succ := tb.FindRow("posting success (%)"); succ != nil {
		if cellFloat(t, succ[1]) < 50 {
			t.Fatalf("posting success only %s%%", succ[1])
		}
	}
}

func TestE5RelatchShape(t *testing.T) {
	tb, err := E5Relatch(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	if row := tb.FindRow("transactions committed"); row == nil || cellFloat(t, row[1]) == 0 {
		t.Fatal("no transactions committed")
	}
	// Hotspot contention must exercise the no-wait denial path.
	if row := tb.FindRow("no-wait denials"); row == nil || cellFloat(t, row[1]) == 0 {
		t.Fatal("no no-wait denials under hotspot contention")
	}
	if row := tb.FindRow("re-latches"); row == nil || cellFloat(t, row[1]) == 0 {
		t.Fatal("no re-latches")
	}
}

func TestE6LazyPostingShape(t *testing.T) {
	tb, err := E6LazyPosting(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	before := cellFloat(t, tb.Rows[0][3])
	after := cellFloat(t, tb.Rows[1][3])
	if before <= after {
		t.Fatalf("side traversals/search before repair (%f) not above after (%f)", before, after)
	}
	if after != 0 {
		t.Fatalf("side traversals remain after repair: %f", after)
	}
}

func TestE7RangeScanShape(t *testing.T) {
	tb, err := E7RangeScan(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if cellFloat(t, row[1]) <= 0 {
			t.Fatalf("%s: no scan throughput", row[0])
		}
	}
}

func TestE8AblationShape(t *testing.T) {
	tb, err := E8Ablation(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	paper := tb.FindRow("split D_X/D_D (paper)")
	single := tb.FindRow("single global counter")
	if paper == nil || single == nil {
		t.Fatal("missing rows")
	}
	// Localizing data-node deletes (paper §4.1.2) keeps SMOs alive: the
	// single global counter must abort a larger fraction of deletes and
	// complete fewer consolidations.
	if cellFloat(t, single[5]) <= cellFloat(t, paper[5]) {
		t.Fatalf("single-counter delete abort rate (%s%%) not above split scheme (%s%%)",
			single[5], paper[5])
	}
	if cellFloat(t, single[3]) >= cellFloat(t, paper[3]) {
		t.Fatalf("single-counter consolidations (%s) not below split scheme (%s)",
			single[3], paper[3])
	}
}

func TestE9RecoveryShape(t *testing.T) {
	tb, err := E9Recovery(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	for _, metric := range []string{"well-formed after recovery", "committed == recovered"} {
		row := tb.FindRow(metric)
		if row == nil || !strings.HasPrefix(row[1], "PASS") {
			t.Fatalf("%s: %v", metric, row)
		}
	}
}

func TestE10OverheadShape(t *testing.T) {
	tb, err := E10Overhead(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	if len(tb.Rows) != 2*len(tiny.Threads) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestE11SchedulerShape(t *testing.T) {
	tb, err := E11Scheduler(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	if len(tb.Rows) != len(tiny.Threads) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(tiny.Threads))
	}
	for i, row := range tb.Rows {
		if cellFloat(t, row[1]) <= 0 {
			t.Fatalf("row %d: non-positive throughput", i)
		}
	}
}

func TestE13CrashConsistencyShape(t *testing.T) {
	tb, err := E13CrashConsistency(tiny)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	// 2 fault modes x 1 seed at sub-Quick scale.
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if cellFloat(t, row[2]) == 0 {
			t.Fatalf("row %d: no crash points enumerated", i)
		}
		if cellFloat(t, row[3]) != 0 {
			t.Fatalf("row %d: crash-consistency violations: %v", i, row)
		}
	}
}

func TestE14SkewToleranceShape(t *testing.T) {
	small := Scale{Preload: 1000, Ops: 2000, Threads: []int{2}}
	tb, err := E14SkewTolerance(small)
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	// 5 distributions x 1 thread count.
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if cellFloat(t, row[2]) <= 0 {
			t.Fatalf("row %d: non-positive throughput", i)
		}
		if row[0] == "seq-append" && cellFloat(t, row[3]) == 0 {
			t.Fatalf("row %d: seq-append served no fast-path hits", i)
		}
	}
}

func TestSkewReportGatesAndJSON(t *testing.T) {
	rep, err := RunSkew(SkewConfig{
		Dists:      []Dist{Uniform, Zipf, SeqAppend},
		Goroutines: []int{1, 2},
		KeySpace:   2000, Preload: 1000, Ops: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Results); got != 6 {
		t.Fatalf("cells = %d, want 6", got)
	}
	if g := rep.MaxGoroutines(); g != 2 {
		t.Fatalf("MaxGoroutines = %d", g)
	}
	if _, ok := rep.Lookup("seq-append", 2); !ok {
		t.Fatal("seq-append cell missing")
	}
	// The gate must at least evaluate at a trivially permissive bound.
	if desc, err := rep.GateSkewVsUniform(0.01); err != nil {
		t.Fatalf("skew gate at 0.01: %v (%s)", err, desc)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSkewReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(rep.Results) || back.KeySpace != rep.KeySpace ||
		back.Cores != rep.Cores || back.Cores == 0 || back.GOMAXPROCS != rep.GOMAXPROCS {
		t.Fatal("JSON round trip mismatch")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	if len(ExperimentIDs) != 15 {
		t.Fatalf("%d experiment IDs", len(ExperimentIDs))
	}
	for _, id := range ExperimentIDs {
		if Experiments[id] == nil {
			t.Fatalf("experiment %s unregistered", id)
		}
	}
}

func TestTableHelpers(t *testing.T) {
	tb := &Table{ID: "T", Title: "t", Header: []string{"a", "b"}}
	tb.AddRow("x", 1.5)
	tb.AddRow("y", 2)
	tb.Note("hello %d", 7)
	if tb.Cell(0, 1) != "1.50" {
		t.Fatalf("Cell = %q", tb.Cell(0, 1))
	}
	if tb.Cell(5, 5) != "" {
		t.Fatal("out of range Cell not empty")
	}
	if tb.FindRow("y") == nil || tb.FindRow("z") != nil {
		t.Fatal("FindRow broken")
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "hello 7") || !strings.Contains(out, "1.50") {
		t.Fatalf("render output: %s", out)
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

// TestAppendKeyMatchesKey: AppendKey appends exactly Key's bytes, across
// the zero padding's edges, negatives and keys wider than the padding, and
// allocates nothing into a buffer with room.
func TestAppendKeyMatchesKey(t *testing.T) {
	is := []int{0, 1, 9, 10, 99_999, 999_999_999, 1_000_000_000, 9_999_999_999, 10_000_000_000, -1, -123_456_789, -1_000_000_000}
	for i := -1000; i <= 1000; i += 7 {
		is = append(is, i, i*1_000_003)
	}
	buf := []byte("prefix")
	for _, i := range is {
		if got, want := AppendKey(buf, i), append([]byte("prefix"), Key(i)...); !bytes.Equal(got, want) {
			t.Fatalf("AppendKey(%d) = %q, want %q", i, got, want)
		}
	}
	dst := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() { dst = AppendKey(dst[:0], 123_456) }); n != 0 {
		t.Fatalf("AppendKey into a buffer with room: %.0f allocs", n)
	}
}
