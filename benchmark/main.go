// Command benchmark is the repository's one benchmark: four workloads, five
// end-to-end metrics each, and a per-layer cost model, as BENCHMARK.json at
// the repository root declares them. See README.md in this directory.
//
//	bash benchmark/run.sh --workload emb.read.cached --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -seed 1 -out base.json        # all four workloads
//	bash benchmark/run.sh -trace 1                      # per-layer metrics
//	bash benchmark/run.sh -compare base.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// report is what -out writes and -compare reads.
type report struct {
	Header header   `json:"header"`
	Runs   []result `json:"runs"`
}

// header records what the numbers were measured on.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Rev        string  `json:"rev"`
	Seed       uint64  `json:"seed"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Trace      bool    `json:"trace"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Uint64("seed", 1, "seed of the per-client request streams")
		seconds = flag.Int("seconds", 30, "measured window in seconds; warm-up, traced replay and unit costs scale with it")
		trace   = flag.Int("trace", 0, "1 runs the separate traced run that yields the per-layer metrics")
		runs    = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "write the report (header and every run) to this file")
		compare = flag.Bool("compare", false, "compare two reports: -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare base.json new.json"))
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	todo := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []workload{*w}
	}

	// A signal stops the blinkd child before the benchmark exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(1)
	}()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	build := filepath.Join(root, ".bench_build")
	cfg := config{
		work:   filepath.Join(build, "work"),
		blinkd: filepath.Join(build, "bin", "blinkd"),
		window: time.Duration(*seconds) * time.Second,
		scale:  1,
		trace:  *trace == 1,
		log:    os.Stdout,
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}
	if err := buildBlinkd(root, cfg.blinkd); err != nil {
		fatal(err)
	}
	rep := report{Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Rev: gitRev(root), Seed: *seed, Clients: clients,
		WindowS: cfg.window.Seconds(), WarmupS: cfg.warmup().Seconds(), Trace: cfg.trace,
	}}
	h, _ := json.Marshal(rep.Header)
	fmt.Printf("# %s\n", h)

	ok := true
	for i := range todo {
		for n := 0; n < *runs; n++ {
			cfg.seed = *seed + uint64(n)
			fmt.Printf("# %s seed %d\n", todo[i].name, cfg.seed)
			res, err := runWorkload(cfg, &todo[i])
			if err != nil {
				fatal(fmt.Errorf("%s: %w", todo[i].name, err))
			}
			printResult(res)
			ok = ok && res.Correct
			rep.Runs = append(rep.Runs, res)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// printResult prints every metric by name with its unit, then the one-line
// JSON object the driver reads.
func printResult(res result) {
	for _, defs := range [][]metricDef{endToEndDefs, layerDefs} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Printf("%-18s %-28s %14.4f %s\n", res.Workload, d.name, m.Value, m.Unit)
			}
		}
	}
	for _, k := range sortedKeys(res.Info) {
		if _, gated := res.Metrics[k]; gated {
			continue
		}
		fmt.Printf("%-18s %-28s %14.4f (info)\n", res.Workload, k, res.Info[k])
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	killChildren()
	os.Exit(1)
}

// findRoot returns the nearest directory at or above the working directory
// that holds BENCHMARK.json: the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// buildBlinkd compiles cmd/blinkd of the repository at root into bin.
func buildBlinkd(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/blinkd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/blinkd: %v\n%s", err, out)
	}
	return nil
}

// gitRev names the commit measured; a checkout that is not a git repository
// says so (git is not asked, it would search the directories above).
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
