package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
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
			args: []string{"-wal-dir", "/tmp/w"},
			check: func(t *testing.T, o *options) {
				c := o.svc
				if c.Aggregate != "f2" || c.Options.Predicate != correlated.Both || c.Options.Eps != 0.15 ||
					c.Options.YMax != 1<<20-1 || c.SnapshotInterval != 30*time.Second ||
					c.IngestQueueMax != 4096 || c.QueryMaxStale != 0 || c.WALDir != "/tmp/w" || c.FS != nil {
					t.Fatalf("default config: %+v", c)
				}
				if o.addr != ":7070" || o.streamAddr != "" || o.debugAddr != "" {
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
			// A standby reports its role as replica; with -push-to it
			// forwards onward, a site once promoted.
			name: "replica", role: "replica",
			args: []string{"-standby", "-push-to", "http://c:7070", "-wal-dir", "/tmp/s", "-primary-timeout", "10s", "-admin-token", "s3cret", "-pred", "ge"},
			check: func(t *testing.T, o *options) {
				c := o.svc
				if !c.Standby || c.PushTo != "http://c:7070" || c.PrimaryTimeout != 10*time.Second ||
					c.AdminToken != "s3cret" || c.Options.Predicate != correlated.GE {
					t.Fatalf("config: %+v", c)
				}
			},
		},
		// A standby is -standby: the primary lists it in its -push-to.
		{name: "primary without role", args: []string{"-primary", "h:1"}, wantErr: "flag provided but not defined: -primary"},
		{name: "replica without primary", args: []string{"-role", "replica"}, wantErr: "flag provided but not defined: -role"},
		{name: "unknown role", args: []string{"-role", "witness"}, wantErr: "flag provided but not defined: -role"},
		{name: "group max is gone", args: []string{"-ingest-group-max", "16"}, wantErr: "flag provided but not defined: -ingest-group-max"},
		{name: "http timeouts are gone", args: []string{"-http-idle-timeout", "1m"}, wantErr: "flag provided but not defined: -http-idle-timeout"},
		{name: "unknown predicate", args: []string{"-pred", "sideways"}, wantErr: `bad -pred "sideways"`},
		{name: "unknown flag", args: []string{"-shard", "2"}, wantErr: "flag provided but not defined"},
		{name: "no log", wantErr: "-wal-dir is required"},
		{name: "site without a log", args: []string{"-push-to", "http://coordinator:7070"}, wantErr: "-wal-dir is required"},
		{name: "snapshot path is gone", args: []string{"-snapshot", "x", "-wal-dir", "d"}, wantErr: "flag provided but not defined: -snapshot"},
		{name: "snapshot keep is gone", args: []string{"-wal-dir", "/tmp/w", "-snapshot-keep", "3"}, wantErr: "flag provided but not defined: -snapshot-keep"},
		{name: "push interval is gone", args: []string{"-push-to", "http://c:7070", "-wal-dir", "/tmp/site", "-push-interval", "1s"}, wantErr: "flag provided but not defined: -push-interval"},
		{name: "bad duration", args: []string{"-query-max-stale", "soon"}, wantErr: "invalid value"},
		{name: "interval fsync is retired", args: []string{"-wal-fsync", "interval"}, wantErr: `-wal-fsync "interval": interval and off are retired`},
		{name: "off fsync is retired", args: []string{"-wal-fsync", "off"}, wantErr: `README "Upgrading"`},
		{name: "fsync interval is gone", args: []string{"-wal-fsync-interval", "1s"}, wantErr: "flag provided but not defined: -wal-fsync-interval"},
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
			if got := roleOf(o.svc.PushTo, o.svc.Standby); got != tc.role {
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

	args := []string{"-query-max-stale", "1h", "-ymax", "65535", "-maxn", "1048576", "-alpha", "512", "-wal-dir", t.TempDir()}
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

// TestSampleHeap: without -debug-addr, where /debug/pprof/heap is served,
// corrd samples no heap profile; with it, the runtime's rate stands.
func TestSampleHeap(t *testing.T) {
	was := runtime.MemProfileRate
	t.Cleanup(func() { runtime.MemProfileRate = was })
	for _, tc := range []struct {
		debugAddr string
		want      int
	}{{"127.0.0.1:6060", 4096}, {"", 0}} {
		runtime.MemProfileRate = 4096
		if sampleHeap(tc.debugAddr); runtime.MemProfileRate != tc.want {
			t.Errorf("-debug-addr %q: MemProfileRate %d, want %d", tc.debugAddr, runtime.MemProfileRate, tc.want)
		}
	}
}

// flagReaders names, for every flag corrd defines, what reads it beyond
// TestParseFlags: for a flag that fills a service.Config or
// correlated.Options field, the service test file that sets that field
// (and the field); for any other, the smoke-script step or corrdbench
// argument that passes it. A flag no one reads has no reason to be parsed.
var flagReaders = map[string]struct{ file, field string }{
	"access-log":        {"scripts/service-smoke.sh", ""},
	"addr":              {"scripts/service-smoke.sh", ""},
	"admin-token":       {"service/replication_test.go", "AdminToken"},
	"agg":               {"service/aggregate_test.go", "Aggregate"},
	"alpha":             {"service/service_test.go", "Alpha"},
	"debug-addr":        {"scripts/service-smoke.sh", ""},
	"delta":             {"service/service_test.go", "Delta"},
	"eps":               {"service/service_test.go", "Eps"},
	"fault-plan":        {"scripts/service-smoke.sh", ""},
	"ingest-queue-max":  {"service/admission_test.go", "IngestQueueMax"},
	"k":                 {"service/aggregate_test.go", "K"},
	"max-body":          {"service/forward_test.go", "MaxBodyBytes"},
	"max-tenant-bytes":  {"service/tenant_test.go", "MaxTenantBytes"},
	"max-tenants":       {"service/tenant_test.go", "MaxTenants"},
	"maxn":              {"service/service_test.go", "MaxStreamLen"},
	"maxx":              {"service/service_test.go", "MaxX"},
	"pred":              {"service/service_test.go", "Predicate"},
	"primary-timeout":   {"service/replication_test.go", "PrimaryTimeout"},
	"push-to":           {"service/forward_test.go", "PushTo"},
	"query-max-stale":   {"service/memo_test.go", "QueryMaxStale"},
	"seed":              {"service/service_test.go", "Seed"},
	"shards":            {"benchmarks/corrdbench/server.go", ""},
	"slow-request":      {"service/accesslog_test.go", "SlowRequest"},
	"snapshot-interval": {"service/service_test.go", "SnapshotInterval"},
	"standby":           {"service/replication_test.go", "Standby"},
	"stream-addr":       {"benchmarks/corrdbench/server.go", ""},
	"tenant-idle-spill": {"service/tenant_test.go", "TenantIdleSpill"},
	"wal-dir":           {"service/service_test.go", "WALDir"},
	"wal-fsync":         {"benchmarks/corrdbench/server.go", ""},
	"wal-segment-bytes": {"service/forward_test.go", "WALSegmentBytes"},
	"ymax":              {"service/service_test.go", "YMax"},
}

// usageFlags is corrd's flag set as -h prints it: each flag's name, in
// order, and its default ("" for a zero value, which -h leaves out).
func usageFlags(t *testing.T) (names []string, defaults map[string]string) {
	t.Helper()
	var usage bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	defaults = map[string]string{}
	dflt := regexp.MustCompile(`\(default (.*)\)$`)
	for _, entry := range strings.Split(usage.String(), "\n  -")[1:] {
		name := strings.Fields(entry)[0]
		names = append(names, name)
		if m := dflt.FindStringSubmatch(strings.TrimSpace(entry)); m != nil {
			if v, err := strconv.Unquote(m[1]); err == nil {
				m[1] = v
			}
			defaults[name] = m[1]
		}
	}
	return names, defaults
}

// TestEveryFlagHasAReader: flagReaders lists exactly corrd's flag set, each
// reader sets the field or passes the flag, and README's corrd flag table
// has one row per flag, in -h's order, with -h's default.
func TestEveryFlagHasAReader(t *testing.T) {
	names, defaults := usageFlags(t)
	defined := map[string]bool{}
	for _, name := range names {
		defined[name] = true
		if _, ok := flagReaders[name]; !ok {
			t.Errorf("-%s has no reader in flagReaders", name)
		}
	}
	for name, r := range flagReaders {
		if !defined[name] {
			t.Errorf("flagReaders lists -%s, which corrd does not define", name)
			continue
		}
		data, err := os.ReadFile(filepath.Join("..", "..", r.file))
		if err != nil {
			t.Fatal(err)
		}
		// A field is set in a composite literal or by an assignment; a
		// flag is passed as a word of a command line or a Go string.
		want, does := `\b`+r.field+`:|\.`+r.field+`\b[^=\n]*[^=!<>:]=[^=]`, "set "+r.field
		if r.field == "" {
			want, does = `(^|[\s"'(])-`+regexp.QuoteMeta(name)+`($|[\s"'=])`, "pass the flag"
		}
		if !regexp.MustCompile(`(?m)` + want).Match(data) {
			t.Errorf("%s is named as the reader of -%s but does not %s", r.file, name, does)
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### corrd flags\n")
	if !ok {
		t.Fatal(`README has no "### corrd flags" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\| ([^|]*) \\|").FindAllStringSubmatch(section, -1)
	for i := 0; i < max(len(rows), len(names)); i++ {
		switch {
		case i >= len(rows):
			t.Errorf("README's flag table ends before -%s", names[i])
		case i >= len(names):
			t.Errorf("README's flag table has -%s, which corrd does not define", rows[i][1])
		case rows[i][1] != names[i]:
			t.Errorf("README's flag table row %d is -%s, want -%s", i+1, rows[i][1], names[i])
		default:
			cell := strings.Trim(strings.TrimSpace(rows[i][2]), "`")
			if cell == "—" {
				cell = ""
			}
			if cell != defaults[names[i]] {
				t.Errorf("README gives -%s the default %q, -h %q", names[i], cell, defaults[names[i]])
			}
		}
	}
}
