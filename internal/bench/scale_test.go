package bench

import (
	"bytes"
	"os"
	"testing"
)

// TestScaleSweepLarge is the CI scale job's deep tier: a million-key sweep,
// every tier verify-clean. Gated behind BLINKTREE_SCALE because it loads
// millions of rows.
func TestScaleSweepLarge(t *testing.T) {
	if os.Getenv("BLINKTREE_SCALE") == "" {
		t.Skip("set BLINKTREE_SCALE=1 to run the large scale sweep")
	}
	rep, err := RunScale(ScaleConfig{Tiers: []int{1_000_000, 2_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		t.Logf("%d keys: %.0f rows/s, %d pages, height %d, fanout %.1f",
			res.Keys, res.RowsPerSec, res.PagesBuilt, res.Height, res.IndexFanout)
		if !res.VerifyClean {
			t.Errorf("%d: not verify-clean", res.Keys)
		}
	}
}

func TestRunScaleSmall(t *testing.T) {
	rep, err := RunScale(ScaleConfig{
		Tiers:  []int{5000, 10000},
		Probes: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("cells = %d, want 2", len(rep.Results))
	}
	if rep.Cores < 1 || rep.GOMAXPROCS < 1 {
		t.Errorf("report names %d cores, GOMAXPROCS %d", rep.Cores, rep.GOMAXPROCS)
	}
	for _, res := range rep.Results {
		if !res.VerifyClean {
			t.Errorf("%d: not verify-clean", res.Keys)
		}
		if res.RowsPerSec <= 0 || res.PagesBuilt == 0 || res.Chunks == 0 {
			t.Errorf("%d: empty load counters: %+v", res.Keys, res)
		}
		if res.Height < 1 || res.IndexFanout <= 1 {
			t.Errorf("%d: degenerate shape: height %d fanout %.1f",
				res.Keys, res.Height, res.IndexFanout)
		}
		if res.GetP50NS <= 0 || res.PutP50NS <= 0 || res.ScanNSPerKey <= 0 {
			t.Errorf("%d: missing probe latencies: %+v", res.Keys, res)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScaleReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(rep.Results) || back.PageSize != rep.PageSize ||
		back.Cores != rep.Cores || back.GOMAXPROCS != rep.GOMAXPROCS {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

func TestE15ScaleTierShape(t *testing.T) {
	tb, err := E15ScaleTier(Scale{Preload: 200})
	if err != nil {
		t.Fatal(err)
	}
	renderToTestLog(t, tb)
	// One row per tier.
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if cellFloat(t, row[1]) <= 0 {
			t.Fatalf("row %d: non-positive rows/s", i)
		}
		if row[len(row)-1] != "true" {
			t.Fatalf("row %d: not verify-clean: %v", i, row)
		}
	}
}
