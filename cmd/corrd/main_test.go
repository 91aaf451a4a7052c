package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/service"
)

// TestParseFlags: flag sets → the service.Config and role they select,
// and the combinations that are refused before anything is opened.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		role    string
		check   func(t *testing.T, o *options)
		wantErr string
	}{
		{
			name: "defaults", role: "coordinator",
			check: func(t *testing.T, o *options) {
				c := o.svc
				if c.Aggregate != "f2" || c.Options.Predicate != correlated.Both || c.Options.Eps != 0.15 ||
					c.Options.YMax != 1<<20-1 || c.WALFsync != "always" || c.IngestGroupMax != 256 ||
					c.IngestQueueMax != 4096 || c.QueryMaxStale != 0 || c.WALDir != "" || c.FS != nil {
					t.Fatalf("default config: %+v", c)
				}
				if o.addr != ":7070" || o.streamAddr != "" || o.readHeaderTO != 10*time.Second {
					t.Fatalf("default listeners: %+v", o)
				}
			},
		},
		{
			// What corrdbench and scripts/service-smoke.sh pass.
			name: "benchmark command line", role: "coordinator",
			args: strings.Fields("-agg f2 -pred both -eps 0.15 -delta 0.1 -ymax 999999 -maxn 16777216 -maxx 500001 -seed 42 " +
				"-shards 2 -wal-fsync always -addr 127.0.0.1:1 -stream-addr 127.0.0.1:2 -wal-dir /tmp/w -query-max-stale 2s"),
			check: func(t *testing.T, o *options) {
				c := o.svc
				// -shards 2 parses and lands nowhere.
				if c.QueryMaxStale != 2*time.Second || c.WALDir != "/tmp/w" ||
					c.Options.Seed != 42 || c.Options.MaxX != 500001 || o.streamAddr != "127.0.0.1:2" {
					t.Fatalf("config: %+v", c)
				}
			},
		},
		{
			name: "site", role: "site",
			args: []string{"-push-to", "http://coordinator:7070", "-wal-dir", "/tmp/site", "-pred", "le"},
			check: func(t *testing.T, o *options) {
				if o.svc.PushTo != "http://coordinator:7070" || o.svc.WALDir != "/tmp/site" || o.svc.Options.Predicate != correlated.LE {
					t.Fatalf("config: %+v", o.svc)
				}
			},
		},
		{
			name: "replica", role: "replica",
			args: []string{"-role", "replica", "-primary", "coordinator:7071", "-primary-timeout", "10s", "-admin-token", "s3cret", "-pred", "ge"},
			check: func(t *testing.T, o *options) {
				c := o.svc
				if c.PrimaryAddr != "coordinator:7071" || c.PrimaryTimeout != 10*time.Second ||
					c.AdminToken != "s3cret" || c.Options.Predicate != correlated.GE {
					t.Fatalf("config: %+v", c)
				}
			},
		},
		{name: "primary without role", args: []string{"-primary", "h:1"}, wantErr: "-primary requires -role=replica"},
		{name: "replica without primary", args: []string{"-role", "replica"}, wantErr: "requires -primary"},
		{name: "unknown role", args: []string{"-role", "witness"}, wantErr: `bad -role "witness"`},
		{name: "unknown predicate", args: []string{"-pred", "sideways"}, wantErr: `bad -pred "sideways"`},
		{name: "unknown flag", args: []string{"-shard", "2"}, wantErr: "flag provided but not defined"},
		{name: "site without a log", args: []string{"-push-to", "http://coordinator:7070"}, wantErr: "-push-to requires -wal-dir"},
		{name: "push interval is gone", args: []string{"-push-to", "http://c:7070", "-wal-dir", "/tmp/site", "-push-interval", "1s"}, wantErr: "flag provided but not defined: -push-interval"},
		{name: "bad duration", args: []string{"-query-max-stale", "soon"}, wantErr: "invalid value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			o, err := parseFlags(tc.args, &stderr)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("%v (stderr %q)", err, stderr.String())
			}
			if got := roleOf(o.svc.PushTo, o.svc.PrimaryAddr); got != tc.role {
				t.Fatalf("role %q, want %q", got, tc.role)
			}
			tc.check(t, o)
		})
	}
}

// TestShardsAndMaxStaleMeaning: what the two flags whose meaning moved
// now do. -shards N parses, says in its help that it is ignored, and
// selects nothing — the options it yields equal those of a command line
// without it; -query-max-stale D keeps a memoized answer alive across a
// write.
func TestShardsAndMaxStaleMeaning(t *testing.T) {
	var usage bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	for _, line := range strings.Split(usage.String(), "\n  -") {
		if strings.HasPrefix(line, "shards ") && !strings.Contains(line, "ignored") {
			t.Fatalf("-shards help does not say the flag is ignored: %q", line)
		}
	}

	args := []string{"-query-max-stale", "1h", "-ymax", "65535", "-maxn", "1048576", "-alpha", "512"}
	o, err := parseFlags(append([]string{"-shards", "4"}, args...), &usage)
	if err != nil {
		t.Fatal(err)
	}
	if plain, err := parseFlags(args, &usage); err != nil || !reflect.DeepEqual(o, plain) {
		t.Fatalf("-shards 4 selected something (err %v):\n%+v\n%+v", err, o, plain)
	}
	svc, err := service.New(o.svc)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	batch := []correlated.Tuple{{X: 1, Y: 10, W: 1}, {X: 2, Y: 20, W: 1}}
	if err := cl.AddBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	first, err := cl.QueryLE(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if again, err := cl.QueryLE(ctx, 100); err != nil || again != first {
		t.Fatalf("inside -query-max-stale the answer moved: %v then %v (err %v)", first, again, err)
	}
}

// TestPaceCollector: corrd sets the collector's headroom to gcPercent when
// the operator has said nothing — GOGC unset or empty, which the runtime reads
// the same way — and leaves the runtime alone when GOGC is a number or "off",
// because that variable is the knob.
func TestPaceCollector(t *testing.T) {
	// percent reads the collector's setting by swapping it out and back in.
	percent := func() int {
		p := debug.SetGCPercent(100)
		debug.SetGCPercent(p)
		return p
	}
	was := percent()
	t.Cleanup(func() { debug.SetGCPercent(was) })

	for _, tc := range []struct {
		gogc string
		want int
	}{{"200", 77}, {"off", 77}, {"", gcPercent}} {
		t.Setenv("GOGC", tc.gogc)
		debug.SetGCPercent(77)
		if paceCollector(); percent() != tc.want {
			t.Errorf("GOGC=%q: the percent is %d after paceCollector, want %d", tc.gogc, percent(), tc.want)
		}
	}
}
