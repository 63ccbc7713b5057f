package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// side is one report's runs of one workload.
type side struct {
	values            map[string][]float64 // metric name → one value per run
	attempted, failed uint64
}

func sidesOf(rep report) map[string]*side {
	out := map[string]*side{}
	for _, run := range rep.Runs {
		if run.Trace {
			continue
		}
		s := out[run.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[run.Workload] = s
		}
		s.attempted += run.Attempted
		s.failed += run.Failed
		for name, m := range run.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
		if v, ok := run.Info[p99Def.name]; ok {
			s.values[p99Def.name] = append(s.values[p99Def.name], v)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share of
// the median, 0 for a single run.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, q2)
}

// verdict judges one metric: worse or better when the medians differ by more
// than the bound, unresolved when they do not but either side's runs spread
// wider than the bound, unchanged otherwise.
func verdict(d metricDef, base, now []float64) (string, float64) {
	change := ratio(median(now), median(base)) - 1 // share of the base median
	worsening := change
	if d.better == "higher" {
		worsening = -change
	}
	switch {
	case worsening > d.bound:
		return "worse", change
	case worsening < -d.bound:
		return "better", change
	case spread(base) > d.bound || spread(now) > d.bound:
		return "unresolved", change
	}
	return "unchanged", change
}

// compareReports prints one row per workload and end-to-end metric (and one
// for p99_us, as information) and reports whether anything got worse: a gated
// metric beyond its bound, or a rise in the share of failed requests.
func compareReports(w io.Writer, basePath, newPath string) (worse bool, err error) {
	baseRep, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	base, now := sidesOf(baseRep), sidesOf(newRep)
	fmt.Fprintf(w, "base %s (rev %s, seed %d), new %s (rev %s, seed %d); ratio = new / base\n",
		basePath, baseRep.Header.Rev, baseRep.Header.Seed, newPath, newRep.Header.Rev, newRep.Header.Seed)
	fmt.Fprintf(w, "%-20s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		b, n := base[wl.name], now[wl.name]
		if b == nil || n == nil {
			continue
		}
		for _, d := range append(slices.Clone(endToEndDefs), p99Def) {
			v, change := verdict(d, b.values[d.name], n.values[d.name])
			if d == p99Def {
				v += " (information only)"
			} else if v == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "%-20s %-14s %14.4f %14.4f %8.4f %6.2f  %s\n", wl.name, d.name,
				median(b.values[d.name]), median(n.values[d.name]), 1+change, d.bound, v)
		}
		fb, fn := ratio(float64(b.failed), float64(b.attempted)), ratio(float64(n.failed), float64(n.attempted))
		v := "unchanged"
		if fn > fb {
			v, worse = "worse", true
		}
		fmt.Fprintf(w, "%-20s %-14s %14.6f %14.6f %8s %6s  %s\n", wl.name, "failed_ratio", fb, fn, "-", "0", v)
	}
	return worse, nil
}
