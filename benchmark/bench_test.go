package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode lints BENCHMARK.json against the tables the program
// reports from, in both directions: workloads, metrics, units, directions
// and bounds.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if i >= len(want) {
				break
			}
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEndDefs)
	check("per_layer", s.PerLayer, layerDefs)
}

// TestWorkloadsSmoke runs all four workloads, untraced and traced, at 1/100
// of the data with 200 ms windows, and requires each run to be correct and to
// emit exactly the metric names BENCHMARK.json lists for its mode. Under
// -short blinkd is served in-process instead of as a child.
func TestWorkloadsSmoke(t *testing.T) {
	s := readSpec(t)
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	cfg := config{work: t.TempDir(), seed: 1, window: 200 * time.Millisecond, scale: 100, log: io.Discard}
	if testing.Verbose() {
		cfg.log = os.Stdout
	}
	if !testing.Short() {
		cfg.blinkd = filepath.Join(cfg.work, "blinkd")
		if err := buildBlinkd("..", cfg.blinkd); err != nil {
			t.Fatal(err)
		}
	}
	for i := range workloads {
		for _, trace := range []bool{false, true} {
			cfg.trace = trace
			res, err := runWorkload(cfg, &workloads[i])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workloads[i].name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					res.Workload, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := names(s.EndToEnd)
			if trace {
				want = names(s.PerLayer)
			}
			got := sortedKeys(res.Metrics)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d", res.Workload, trace, len(got), len(want))
			}
			for j := range got {
				if j < len(want) && got[j] != want[j] {
					t.Errorf("%s trace=%v: reported %q where BENCHMARK.json lists %q", res.Workload, trace, got[j], want[j])
				}
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", res.Workload, trace, name, m.Value)
				}
			}
		}
	}
}

// TestHistogramQuantileError checks the ≤1 % bucket error against exact
// quantiles of the same samples, over six orders of magnitude.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h hist
	samples := make([]float64, 200_000)
	for i := range samples {
		ns := int64(math.Exp(rng.Float64() * math.Log(1e9)))
		samples[i] = float64(ns)
		h.observe(ns)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.quantile(q)
		if err := math.Abs(got-exact) / exact; err > 0.01 {
			t.Errorf("q%.3f = %.0f, exact %.0f: error %.2f %% > 1 %%", q, got, exact, 100*err)
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty histogram: q50 = %v, want 0", got)
	}
}

// TestSelfTimes checks self time = span − the part its children cover, with
// overlapping children counted once and a child cut at its parent's end.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: spOp, parent: -1, start: 0, end: 100},
		{name: spTreeCall, parent: 0, start: 10, end: 90},
		{name: spStorageRead, parent: 1, start: 20, end: 40},
		{name: spWalAppend, parent: 1, start: 30, end: 50},     // overlaps the read
		{name: spStorageWrite, parent: 1, start: 80, end: 120}, // runs past tree.call
		{name: spStorageSync, parent: 1, start: 60, end: 60},   // empty
	}
	want := []int64{20, 40, 20, 20, 40, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spanNameStr[spans[i].name], got[i], want[i])
		}
	}
	sum := summarize(spans, got, 0, len(spans))
	if c := sum[spTreeCall]; c.count != 1 || c.total != 80 || c.self != 40 || c.median != 80 {
		t.Errorf("tree.call summary = %+v", c)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
}

// TestVerdict covers the four verdicts of -compare in both directions.
func TestVerdict(t *testing.T) {
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	lower := metricDef{name: "p50_us", better: "lower", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 100, 125, 90, 110}
	for _, c := range []struct {
		d         metricDef
		base, now []float64
		want      string
	}{
		{higher, steady, []float64{85, 86, 84}, "worse"},
		{higher, steady, []float64{120, 121, 119}, "better"},
		{higher, steady, []float64{95, 96, 97}, "unchanged"},
		{higher, noisy, []float64{95, 96, 97}, "unresolved"},
		{lower, steady, []float64{120, 121, 119}, "worse"},
		{lower, steady, []float64{85, 86, 84}, "better"},
		{lower, steady, []float64{104}, "unchanged"},
		{lower, steady, noisy, "unresolved"},
	} {
		if got, _ := verdict(c.d, c.base, c.now); got != c.want {
			t.Errorf("%s base %v new %v: %s, want %s", c.d.name, c.base, c.now, got, c.want)
		}
	}
}
