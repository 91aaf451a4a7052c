package service

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/wal"
)

// parentLogPath is a log-7 state directory an earlier commit's server
// wrote, with the image and answers it served for each tenant: a gzipped
// gob mapping "wal/"+file, "image/="+tenant and "answers/="+tenant to
// bytes. Only that code writes it, from a checkout with this file copied
// in:
//
//	scripts/parent-log.sh 9f6d950
const parentLogPath = "testdata/parent-log.gob.gz"

var writeParentLog = flag.Bool("write-parent-log", false, "write "+parentLogPath+" from this build (run by scripts/parent-log.sh)")

// TestParentLogCrossover starts a server on the state directory in
// parentLogPath — the default tenant and keyed tenants "acme" and "beta",
// a forward from site abc, a checkpoint, then an ingest into "acme" and a
// new tenant "gamma" after it, and a crash — and holds every tenant's image
// and answers to what the server that wrote it served, byte for byte.
func TestParentLogCrossover(t *testing.T) {
	cfg := walConfig(t)
	cfg.WALSegmentBytes = 4 << 10
	if *writeParentLog {
		writeParentLogFile(t, cfg)
		return
	}
	raw, err := os.ReadFile(parentLogPath)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	served := map[string][]byte{}
	if err := cmp.Or(gob.NewDecoder(zr).Decode(&served), os.MkdirAll(cfg.WALDir, 0o755)); err != nil {
		t.Fatal(err)
	}
	for key, data := range served {
		if name, ok := strings.CutPrefix(key, "wal/"); ok {
			if err := os.WriteFile(filepath.Join(cfg.WALDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc := mustNew(t, cfg)
	if tenants := svc.tenantList(); len(tenants) != 4 || len(served) < 10 {
		t.Fatalf("%d tenants restored from %d files, want the parent's 4", len(tenants), len(served))
	}
	for _, tn := range svc.tenantList() {
		img, answers := servedBy(t, svc, tn)
		if want := served["image/="+tn.name]; !bytes.Equal(img, want) || answers != string(served["answers/="+tn.name]) {
			t.Fatalf("tenant %q: image (%d bytes, the parent served %d) or answers differ:\n%s\nwant\n%s", tn.name, len(img), len(want), answers, served["answers/="+tn.name])
		}
	}
}

// servedBy returns a tenant's image and its answers at a spread of
// cutoffs, one line a cutoff.
func servedBy(t *testing.T, svc *Server, tn *tenant) ([]byte, string) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	eng, err := svc.ensureEngineLocked(tn)
	if err != nil {
		t.Fatal(err)
	}
	var answers strings.Builder
	for _, c := range []uint64{0, 1, 77, 150, 299, 300, 4096, 1<<16 - 1} {
		le, lerr := eng.QueryLE(c)
		ge, gerr := eng.QueryGE(c)
		fmt.Fprintf(&answers, "%d %b %v %b %v\n", c, le, lerr, ge, gerr)
	}
	img, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return img, answers.String()
}

// writeParentLogFile builds the state directory TestParentLogCrossover
// restores with this build's server, and writes it to parentLogPath beside
// what each tenant served before the crash.
func writeParentLogFile(t *testing.T, cfg Config) {
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"", "acme", "beta"} {
		if err := svc.commit(ingestOf(name, testStream(300+100*i, uint64(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	body := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, "acme"))
	if err := cmp.Or(svc.commit(&ingestJob{op: opForward, site: 0xabc, image: body}), svc.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if err := cmp.Or(svc.commit(ingestOf("acme", testStream(150, 4))), svc.commit(ingestOf("gamma", testStream(150, 5)))); err != nil {
		t.Fatal(err)
	}
	served := map[string][]byte{}
	for _, tn := range svc.tenantList() {
		img, answers := servedBy(t, svc, tn)
		served["image/="+tn.name], served["answers/="+tn.name] = img, []byte(answers)
	}
	crash(nil, svc)
	for name, data := range dirBytes(t, cfg.WALDir) {
		served["wal/"+name] = data
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := cmp.Or(gob.NewEncoder(zw).Encode(served), zw.Close(), os.WriteFile(parentLogPath, buf.Bytes(), 0o644)); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d bytes", parentLogPath, buf.Len())
}
