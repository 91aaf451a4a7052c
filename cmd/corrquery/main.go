// Command corrquery ingests a CSV stream of "x,y" tuples (as produced by
// corrgen, or exported flow logs) and answers interactive drill-down
// queries from stdin — the paper's motivating workflow as a tool.
//
// Usage:
//
//	corrquery -in data.csv [-eps 0.15] [-delta 0.1] [-ymax 1048575]
//	          [-xdom 1048576] [-n 16777216] [-seed 1]
//
// Blank lines and lines starting with # are ignored. Any other line that is
// not two unsigned integers separated by a comma is skipped, and counted:
// the count and the first such line's number follow "ingested N tuples". A
// y above -ymax stops the command with the number of its line.
//
// Then on stdin, one query per line:
//
//	quantile 0.95      → the 95th-percentile y value
//	count le 5000      → COUNT of tuples with y <= 5000
//	count ge 5000
//	f2 le 5000         → F2 of identifiers among tuples with y <= 5000
//	f2 ge 5000
//	f0 le 5000         → distinct identifiers among tuples with y <= 5000
//	f0 ge 5000
//	rarity le 5000     → fraction of selected identifiers seen exactly once
//	space              → summary sizes
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	correlated "github.com/streamagg/correlated"
)

// options are the summaries' parameters, one flag each.
type options struct {
	eps, delta          float64
	ymax, xdom, n, seed uint64
}

func main() {
	var o options
	in := flag.String("in", "", "input CSV of x,y tuples (required)")
	flag.Float64Var(&o.eps, "eps", 0.15, "relative error")
	flag.Float64Var(&o.delta, "delta", 0.1, "failure probability")
	flag.Uint64Var(&o.ymax, "ymax", 1<<20-1, "largest y value")
	flag.Uint64Var(&o.xdom, "xdom", 1<<20, "identifier domain size")
	flag.Uint64Var(&o.n, "n", 1<<24, "stream length bound")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "corrquery: -in is required")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	die(err)
	err = run(f, os.Stdin, os.Stdout, o)
	f.Close()
	die(err)
}

// run ingests the x,y lines of csv, says how many it took and which it could
// not read, then answers the queries, one a line, until quit or the end of
// queries. A y above o.ymax stops the ingest with the line it is on.
func run(csv, queries io.Reader, out io.Writer, o options) error {
	opts := correlated.Options{
		Eps: o.eps, Delta: o.delta, YMax: o.ymax,
		MaxStreamLen: o.n, MaxX: o.xdom, Seed: o.seed,
		Predicate: correlated.Both,
	}
	f2, err := correlated.NewF2Summary(opts)
	if err != nil {
		return err
	}
	f0, err := correlated.NewF0Summary(opts)
	if err != nil {
		return err
	}
	cnt, err := correlated.NewCountSummary(opts)
	if err != nil {
		return err
	}
	quant, err := correlated.NewQuantiles(minf(o.eps, 0.02))
	if err != nil {
		return err
	}

	sc := bufio.NewScanner(csv)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var rows, skipped, line, firstBad uint64
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		x, y, ok := parseTuple(text)
		if !ok {
			if skipped++; skipped == 1 {
				firstBad = line
			}
			continue
		}
		for _, add := range []func(x, y uint64) error{f2.Add, f0.Add, cnt.Add} {
			if err := add(x, y); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
		}
		quant.Add(y)
		rows++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(out, "ingested %d tuples", rows)
	if skipped > 0 {
		fmt.Fprintf(out, ", skipped %d lines that are not x,y (the first is line %d)", skipped, firstBad)
	}
	fmt.Fprintln(out, "; ready (type 'help')")

	answer := func(v float64, err error) {
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		fmt.Fprintf(out, "%.6g\n", v)
	}
	repl := bufio.NewScanner(queries)
	for {
		fmt.Fprint(out, "> ")
		if !repl.Scan() {
			return repl.Err()
		}
		fields := strings.Fields(strings.ToLower(repl.Text()))
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return nil
		case "help":
			fmt.Fprintln(out, "quantile <phi> | count|f2|f0|rarity le|ge <c> | space | quit")
		case "space":
			fmt.Fprintf(out, "f2=%d f0=%d count=%d quantiles=%d (stream=%d)\n",
				f2.Space(), f0.Space(), cnt.Space(), quant.Space(), rows)
		case "quantile":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: quantile <phi>")
				continue
			}
			phi, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				fmt.Fprintln(out, "bad phi:", err)
				continue
			}
			v, err := quant.Query(phi)
			answer(float64(v), err)
		case "count", "f2", "f0", "rarity":
			if len(fields) != 3 || (fields[1] != "le" && fields[1] != "ge") {
				fmt.Fprintf(out, "usage: %s le|ge <c>\n", fields[0])
				continue
			}
			c, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				fmt.Fprintln(out, "bad cutoff:", err)
				continue
			}
			le := fields[1] == "le"
			switch fields[0] {
			case "count":
				answer(dir(le, cnt.QueryLE, cnt.QueryGE)(c))
			case "f2":
				answer(dir(le, f2.QueryLE, f2.QueryGE)(c))
			case "f0":
				answer(dir(le, f0.QueryLE, f0.QueryGE)(c))
			case "rarity":
				answer(dir(le, f0.RarityLE, f0.RarityGE)(c))
			}
		default:
			fmt.Fprintln(out, "unknown command; type 'help'")
		}
	}
}

// parseTuple reads an "x,y" line of two unsigned integers.
func parseTuple(text string) (x, y uint64, ok bool) {
	xs, ys, found := strings.Cut(text, ",")
	if !found {
		return 0, 0, false
	}
	x, err1 := strconv.ParseUint(xs, 10, 64)
	y, err2 := strconv.ParseUint(ys, 10, 64)
	return x, y, err1 == nil && err2 == nil
}

func dir(le bool, leFn, geFn func(uint64) (float64, error)) func(uint64) (float64, error) {
	if le {
		return leFn
	}
	return geFn
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrquery: %v\n", err)
		os.Exit(1)
	}
}
