package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/streamagg/correlated/internal/exact"
	"github.com/streamagg/correlated/internal/gen"
)

var testOptions = options{eps: 0.15, delta: 0.1, ymax: 1<<20 - 1, xdom: 1 << 20, n: 1 << 24, seed: 1}

// TestRunReportsWhatItCannotRead: a line that is not two unsigned integers is
// skipped and counted, with the first such line named beside the tuples
// taken; a y above -ymax stops the ingest and names its line.
func TestRunReportsWhatItCannotRead(t *testing.T) {
	csv := "# x,y\n1,2\n3,4\n\n5;6\n7,8\n9,x\n"
	var out strings.Builder
	if err := run(strings.NewReader(csv), strings.NewReader("count le 10\nquit\n"), &out, testOptions); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if want := "ingested 3 tuples, skipped 2 lines that are not x,y (the first is line 5); ready (type 'help')"; first != want {
		t.Fatalf("first line %q, want %q", first, want)
	}
	if !strings.Contains(out.String(), "> 3\n") {
		t.Fatalf("count le 10 over the three tuples read: %q", out.String())
	}

	out.Reset()
	csv = fmt.Sprintf("1,2\n3,%d\n5,6\n", testOptions.ymax+1)
	err := run(strings.NewReader(csv), strings.NewReader(""), &out, testOptions)
	if err == nil || !strings.HasPrefix(err.Error(), "line 2: ") || !strings.Contains(err.Error(), "exceeds YMax") {
		t.Fatalf("a y above ymax on line 2: error %v", err)
	}
}

// TestRunAnswersWithinEps: on a 20 000-tuple stream, the COUNT and F2 answers
// below a spread of cutoffs are within ε of the exact ones.
func TestRunAnswersWithinEps(t *testing.T) {
	const n = 20_000
	st := gen.Uniform(n, 5_000, testOptions.ymax+1, 3)
	truth := exact.New()
	var csv strings.Builder
	for tu, ok := st.Next(); ok; tu, ok = st.Next() {
		fmt.Fprintf(&csv, "%d,%d\n", tu.X, tu.Y)
		truth.Add(tu.X, tu.Y)
	}
	var queries strings.Builder
	var want []float64
	for c := uint64(1 << 16); c <= testOptions.ymax; c += 1 << 17 {
		fmt.Fprintf(&queries, "count le %d\nf2 le %d\n", c, c)
		want = append(want, truth.Count1(c), truth.F2(c))
	}
	var out strings.Builder
	if err := run(strings.NewReader(csv.String()), strings.NewReader(queries.String()), &out, testOptions); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n> "), "\n") // less the prompt left when the queries ran out
	if lines[0] != fmt.Sprintf("ingested %d tuples; ready (type 'help')", n) || len(lines) != len(want)+1 {
		t.Fatalf("output %q", out.String())
	}
	for i, line := range lines[1:] {
		got, err := strconv.ParseFloat(strings.TrimPrefix(line, "> "), 64)
		if err != nil {
			t.Fatalf("answer %d: %q", i, line)
		}
		if rel := math.Abs(got-want[i]) / want[i]; rel > testOptions.eps {
			t.Errorf("query %d: %v, exact %v, relative error %.3f", i, got, want[i], rel)
		}
	}
}
