package main

import (
	"context"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/hash"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}

	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, err := percentile(sorted, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990 with ten samples beyond it", v, err)
	}
	if v, err := percentile(sorted, 50); err != nil || v != 500 {
		t.Errorf("p50 of 1..1000 = %g, %v; want 500", v, err)
	}
	if _, err := percentile(sorted[:999], 99); err == nil {
		t.Error("p99 of 999 samples was reported; only nine samples lie beyond it")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// returns, which is what the driver judges a metric's spread by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 7, 4, 5}, 3, 5, 8.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := largestGap([]float64{4, 5, 2}); got != 1.5 {
		t.Errorf("largestGap = %g, want (5-2)/2", got)
	}
}

func TestStageDelta(t *testing.T) {
	a := client.StageStats{Count: 100, AvgMs: 2}    // 200 ms spent
	b := client.StageStats{Count: 400, AvgMs: 1.25} // 500 ms spent
	n, avg := stageDelta(a, b)
	if n != 300 || math.Abs(avg-1) > 1e-12 {
		t.Errorf("stageDelta = %d observations of %g ms, want 300 of 1 ms", n, avg)
	}
	if n, avg := stageDelta(b, b); n != 0 || avg != 0 {
		t.Errorf("a stage that never ran reads %d, %g; want zeros", n, avg)
	}
	if n, _ := stageDelta(client.StageStats{}, a); n != 100 {
		t.Errorf("a stage absent from the first snapshot counts %d, want 100", n)
	}
}

// An open loop keeps its schedule through a stall: the requests behind
// the stall are still due when they were due, so their latency carries
// the wait, and the lag reports how late the loop ran.
func TestPaceTimesFromDue(t *testing.T) {
	const period = int64(10 * time.Millisecond)
	r := &run{epoch: time.Now()}
	ctx := context.Background()

	due, lag := r.pace(ctx, 2, period)
	if due != 2*period {
		t.Fatalf("request 2 due at %d, want %d", due, 2*period)
	}
	if now := r.now(); now < due {
		t.Fatalf("pace returned at %d, before the request was due at %d", now, due)
	}
	if lag < 0 || lag > int64(8*time.Millisecond) {
		t.Errorf("an idle loop ran %v late", time.Duration(lag))
	}

	time.Sleep(40 * time.Millisecond) // the stall: a request that does not come back
	due, lag = r.pace(ctx, 3, period)
	if due != 3*period {
		t.Errorf("request 3 due at %d after the stall, want %d: the schedule must not slide", due, 3*period)
	}
	if lag < int64(30*time.Millisecond) {
		t.Errorf("lag after a 40 ms stall is %v", time.Duration(lag))
	}
	if latency := r.now() - due; latency < int64(30*time.Millisecond) {
		t.Errorf("latency from due time is %v; the stall was not charged", time.Duration(latency))
	}
}

func TestMeasuredSamplesAndFailures(t *testing.T) {
	ms := int64(time.Millisecond)
	lanes := []*lane{
		{name: "client.ack", samples: []sample{
			{start: 0, end: 5 * ms, tuples: 10}, // warm-up
			{start: 10 * ms, end: 12 * ms, tuples: 10, measured: true},
			{start: 11 * ms, end: 15 * ms, tuples: 10, measured: true, failed: true},
		}},
		{name: "client.query", samples: []sample{{start: 10 * ms, end: 40 * ms, measured: true}}},
	}
	acks := latenciesMs(lanes, false)
	if len(acks) != 2 || acks[0] != 2 || acks[1] != float64(failedLatency)/1e6 {
		t.Errorf("acks = %v, want the 2 ms one and the failure charged the client timeout", acks)
	}
	if qs := latenciesMs(lanes, true); len(qs) != 1 || qs[0] != 30 {
		t.Errorf("queries = %v, want [30]", qs)
	}
	// Only measured, acknowledged tuples whose ack fell in the interval count.
	if got := ackedRate(lanes, 0, 20*ms); got != 10/0.02 {
		t.Errorf("ackedRate = %g, want 500", got)
	}
}

func TestExactAnswersMatchInternalExact(t *testing.T) {
	rng := hash.New(5)
	ref := exact.New()
	logs := make([][]xy, 2)
	for i := 0; i < 30000; i++ {
		x := rng.Uint64n(500) // few identifiers, so frequencies get large
		y := rng.Uint64n(ydom)
		if i%1000 == 0 {
			y = cutoffs[i/1000%len(cutoffs)] // ties with a cutoff count on both sides
		}
		ref.Add(x, y)
		logs[i%2] = append(logs[i%2], xy{uint32(x), uint32(y)})
	}
	got := exactAnswers(logs...)
	if got.count != ref.Count() {
		t.Errorf("count %d, want %d", got.count, ref.Count())
	}
	for i, c := range cutoffs {
		if want := ref.F2(c); got.le[i] != want {
			t.Errorf("F2(y <= %d) = %g, internal/exact says %g", c, got.le[i], want)
		}
		if want := ref.F2Complement(c); got.ge[i] != want {
			t.Errorf("F2(y >= %d) = %g, internal/exact says %g", c, got.ge[i], want)
		}
	}
}

// BENCHMARK.json is the registry; it has to stay inside the limits the
// driver enforces, and name exactly the workloads the harness runs.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) || len(spec.Workloads) > 8 {
		t.Fatalf("%d workloads listed, the harness runs %d (at most 8)", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	var setup, largest float64
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and lower-is-better")
			}
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s must be listed and carry the largest bound (has %g, largest %g)", setup, largest)
	}
	for _, m := range spec.PerLayer {
		checkName(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// One second of every workload against a real daemon: the lanes, the
// checks, the kill -9 restart and — on one workload — the traced pass.
// A second is too short for the tail percentiles, which the harness
// rightly refuses; every other check has to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns corrd")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	e, err := newEnv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			trace := i == 0
			r, err := e.runOnce(ctx, w, 7, 1, trace)
			if err != nil {
				t.Fatalf("%v\ncorrd stderr:\n%s", err, r.srv.stderr.String())
			}
			for _, p := range r.problems {
				if strings.Contains(p, "samples") || strings.Contains(p, "has no value") {
					continue
				}
				t.Errorf("failed check: %s", p)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%d of %d requests failed", r.failed, r.attempted)
			}
			for _, m := range e.modeList(trace) {
				if _, ok := r.m[m.Name]; !ok && !strings.Contains(m.Name, "_p9") {
					t.Errorf("metric %s was not measured", m.Name)
				}
			}
		})
	}
}
