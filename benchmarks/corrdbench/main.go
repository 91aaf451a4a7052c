// Command corrdbench is the repository's benchmark: it builds cmd/corrd,
// runs it as a child process, drives one workload against it through the
// public client package over two connections, checks what the daemon
// holds afterwards — counts, accuracy against internal/exact, and the
// same summary bytes after a kill -9 — and prints every metric that
// BENCHMARK.json lists. See README.md beside this file.
//
// Linux only: it reads the daemon's CPU and memory from /proc.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricSpec is one metric as BENCHMARK.json declares it. That file is
// the only registry: the harness takes names, units, directions and
// bounds from it and refuses to report a metric it does not list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// env is what every run shares: the checkout, the scratch directory
// everything the benchmark writes goes under, and the daemon binary.
type env struct {
	root     string
	scratch  string
	corrdBin string
	spec     benchSpec
}

// findRoot walks up from the working directory to the checkout root,
// the directory that holds BENCHMARK.json.
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
			return "", fmt.Errorf("no BENCHMARK.json above the working directory: run from the repository")
		}
		dir = parent
	}
}

func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: root, scratch: filepath.Join(root, ".bench_build", "corrdbench"), spec: spec}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	e.corrdBin = filepath.Join(e.scratch, "corrd")
	return e, buildCorrd(ctx, root, e.corrdBin)
}

// output is the last line of a run, in the shape the driver reads.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce executes one workload and checks the metric set against
// BENCHMARK.json: every metric of the mode's list must have a finite
// value (an end-to-end one a positive value), and nothing may be
// measured that the file does not list.
func (e *env) runOnce(ctx context.Context, w workload, seed uint64, seconds int, trace bool) (*run, error) {
	r := &run{w: w, env: e, seed: seed, seconds: seconds, trace: trace}
	if err := r.execute(ctx); err != nil {
		if r.srv != nil && r.srv.stderr.Len() > 0 {
			fmt.Fprintf(os.Stderr, "--- corrd stderr ---\n%s", r.srv.stderr.String())
		}
		return r, err
	}
	listed := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), e.spec.EndToEnd...), e.spec.PerLayer...) {
		listed[m.Name] = true
	}
	for name := range r.m {
		if !listed[name] {
			r.problemf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	for _, m := range e.modeList(trace) {
		v, ok := r.m[m.Name]
		switch {
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			r.problemf("metric %s has no value", m.Name)
		case !trace && v <= 0:
			r.problemf("end-to-end metric %s is %g, not positive", m.Name, v)
		}
	}
	return r, nil
}

// modeList is what a run reports: end-to-end metrics with tracing off,
// per-layer metrics from a traced run.
func (e *env) modeList(trace bool) []metricSpec {
	if trace {
		return e.spec.PerLayer
	}
	return e.spec.EndToEnd
}

// report prints every measured metric by name with unit, direction and
// bound, then the problems, then the result line.
func (e *env) report(r *run, trace bool) {
	fmt.Printf("workload %s  seed %d  %d s measured  trace %v\n", r.w.name, r.seed, r.seconds, trace)
	fmt.Printf("server: corrd %s\n", strings.Join(r.srv.args, " "))
	fmt.Println("flush policy: -wal-fsync always (one fsync per commit group before its acks)")
	fmt.Println("restart check: SIGKILL leaves the page cache intact, so it checks replay, not the loss of unflushed bytes (the chaos suite owns that)")
	for _, group := range []struct {
		title string
		list  []metricSpec
	}{{"end to end", e.spec.EndToEnd}, {"per layer", e.spec.PerLayer}} {
		fmt.Printf("%s:\n", group.title)
		for _, m := range group.list {
			v, ok := r.m[m.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-36s %16.6g %-10s %s is better", m.Name, v, m.Unit, m.Better)
			if m.Bound > 0 {
				line += fmt.Sprintf(", bound %.2f", m.Bound)
			}
			fmt.Println(line)
		}
	}
	if trace {
		fmt.Printf("ledger: the layers explain %.0f%% of a one-in-flight frame's %.0f us round trip; the remaining %.0f us is TCP loopback, committer wake-ups and the ack hand-off, none of which the harness can span from outside\n",
			100*r.m["ledger.explained_ratio"], r.m["ledger.probe_ack_p50_us"], r.m["ledger.unexplained_us"])
	}
	for _, p := range r.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	if len(r.problems) > 0 && r.srv.stderr.Len() > 0 {
		fmt.Fprintf(os.Stderr, "--- corrd stderr ---\n%s", r.srv.stderr.String())
	}

	out := output{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range e.modeList(trace) {
		if v, ok := r.m[m.Name]; ok {
			out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// machine is the disclosure a stored calibration carries.
func machine() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]any{"cpu": cpu, "nproc": runtime.NumCPU(), "go": runtime.Version()}
}

// metricSummary is one metric on one workload across the sets.
type metricSummary struct {
	Median     float64   `json:"median"`
	Q1         float64   `json:"q1"`
	Q3         float64   `json:"q3"`
	Spread     float64   `json:"spread"`
	LargestGap float64   `json:"largest_gap"`
	Values     []float64 `json:"values"`
}

// calibrate runs the chosen workloads in interleaved sets, each set on
// its own seed, then one traced pass, and prints for every metric an
// untraced run measures its median, quartiles, spread (interquartile
// distance over median — what the driver holds against a bound) and
// largest gap. The spreads are how a metric earns a bound, or its place
// among the unbounded per-layer ones.
func (e *env) calibrate(ctx context.Context, chosen []workload, sets int, seed uint64, seconds int, outPath string) int {
	values := make(map[string]map[string][]float64) // workload → metric → one value per set
	for s := 0; s < sets; s++ {
		for _, w := range chosen {
			r, err := e.runOnce(ctx, w, seed+uint64(s), seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "corrdbench: %s set %d: %v\n", w.name, s, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s: %d failed checks\n", s+1, sets, w.name, len(r.problems))
			for _, p := range r.problems {
				fmt.Fprintf(os.Stderr, "  FAILED CHECK: %s\n", p)
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for name, v := range r.m {
				values[w.name][name] = append(values[w.name][name], v)
			}
		}
	}
	traced := make(map[string]map[string]float64)
	for _, w := range chosen {
		r, err := e.runOnce(ctx, w, seed, seconds, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corrdbench: %s traced: %v\n", w.name, err)
			return 1
		}
		traced[w.name] = r.m
	}

	untraced := make(map[string]map[string]metricSummary)
	fmt.Printf("%-16s %-32s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "gap", "bound")
	for _, w := range chosen {
		untraced[w.name] = make(map[string]metricSummary)
		for _, m := range append(append([]metricSpec(nil), e.spec.EndToEnd...), e.spec.PerLayer...) {
			v, ok := values[w.name][m.Name]
			if !ok {
				continue
			}
			q1, med, q3 := quartiles(v)
			s := metricSummary{Median: med, Q1: q1, Q3: q3, Spread: spread(v), LargestGap: largestGap(v), Values: v}
			untraced[w.name][m.Name] = s
			bound := "     -"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%6.2f", m.Bound)
				if m.Name != "setup_s" && s.Spread > m.Bound/3 {
					bound += "  spread above a third of the bound"
				}
			}
			fmt.Printf("%-16s %-32s %12.6g %12.6g %12.6g %8.4f %8.4f %s\n", w.name, m.Name, med, q1, q3, s.Spread, s.LargestGap, bound)
		}
	}
	if outPath == "" {
		return 0
	}
	b, err := json.MarshalIndent(map[string]any{
		"machine": machine(), "sets": sets, "seed": seed, "seconds": seconds,
		"untraced_sets": untraced, "traced_run": traced,
	}, "", "  ")
	if err == nil {
		err = os.WriteFile(outPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrdbench: %v\n", err)
		return 1
	}
	return 0
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames()+" (with -sets: empty = all)")
		seed    = flag.Uint64("seed", 11, "workload seed; client i draws from seed + i*1000003")
		seconds = flag.Int("seconds", 0, "length of the measured phase (0 = run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run: record spans, replay the layer ledger, report the per-layer metrics")
		sets    = flag.Int("sets", 0, "calibration: run this many interleaved sets on seeds seed, seed+1, ... plus one traced pass")
		out     = flag.String("out", "", "with -sets: also write the calibration as JSON to this file")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrdbench: %v\n", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = e.spec.RunSeconds
	}

	chosen := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "corrdbench: unknown workload %q (have %s)\n", *name, workloadNames())
			return 2
		}
		chosen = []workload{w}
	}
	if *sets > 0 {
		return e.calibrate(ctx, chosen, *sets, *seed, *seconds, *out)
	}
	if len(chosen) != 1 {
		fmt.Fprintf(os.Stderr, "corrdbench: -workload is required (one of %s)\n", workloadNames())
		return 2
	}
	r, err := e.runOnce(ctx, chosen[0], *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrdbench: %s: %v\n", chosen[0].name, err)
		return 1
	}
	e.report(r, *trace == 1)
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() { os.Exit(realMain()) }
