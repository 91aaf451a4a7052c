package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	correlated "github.com/streamagg/correlated"
)

// summaryOptions and shards are the summary configuration every workload
// shares. The daemon gets them as flags and the ledger builds each
// layer from the same struct, so both sides measure the same structure.
var summaryOptions = correlated.Options{
	Eps: eps, Delta: 0.1, YMax: ydom - 1,
	MaxStreamLen: 1 << 24, MaxX: 500001, Seed: 42,
	Predicate: correlated.Both,
}

const shards = 2

// serverFlags renders the shared configuration as corrd flags. The
// flush policy (-wal-fsync always) is part of it: a comparison is only
// fair with the same durability on both sides.
func serverFlags() []string {
	o := summaryOptions
	return []string{
		"-agg", "f2", "-pred", "both",
		"-eps", fmt.Sprint(o.Eps), "-delta", fmt.Sprint(o.Delta),
		"-ymax", fmt.Sprint(o.YMax), "-maxn", fmt.Sprint(o.MaxStreamLen),
		"-maxx", fmt.Sprint(o.MaxX), "-seed", fmt.Sprint(o.Seed),
		"-shards", fmt.Sprint(shards), "-wal-fsync", "always",
	}
}

// buildCorrd compiles cmd/corrd from the checkout at root. The go
// command's own cache makes a repeat build a no-op.
func buildCorrd(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/corrd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/corrd: %w\n%s", err, b)
	}
	return nil
}

// freeAddrs asks the kernel for two unused loopback ports, holding the
// first open until the second is chosen so they cannot be the same one.
func freeAddrs() (httpAddr, streamAddr string, err error) {
	a, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer a.Close()
	b, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer b.Close()
	return a.Addr().String(), b.Addr().String(), nil
}

// corrd is one child daemon: its flags are kept so restart brings the
// same configuration up on the same ports and WAL directory.
type corrd struct {
	bin    string
	args   []string
	http   string // host:port
	stream string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the child has been reaped
	stderr bytes.Buffer
}

func newCorrd(bin, walDir string, extra []string) (*corrd, error) {
	httpAddr, streamAddr, err := freeAddrs()
	if err != nil {
		return nil, err
	}
	c := &corrd{bin: bin, http: httpAddr, stream: streamAddr}
	c.args = append(c.args, serverFlags()...)
	c.args = append(c.args, "-addr", httpAddr, "-stream-addr", streamAddr, "-wal-dir", walDir)
	c.args = append(c.args, extra...)
	return c, nil
}

func (c *corrd) base() string { return "http://" + c.http }

// start spawns the daemon and returns once /readyz answers 200, which
// is after the WAL has been replayed.
func (c *corrd) start(ctx context.Context) error {
	c.cmd = exec.Command(c.bin, c.args...)
	c.cmd.Stderr = &c.stderr
	// The child dies with the harness even when the harness is killed
	// outright and no deferred kill runs.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return err
	}
	exited := make(chan struct{})
	go func() {
		c.cmd.Wait() // reaped here; kill waits on exited
		close(exited)
	}()
	c.exited = exited

	// corrd binds the stream listener after the HTTP one, so /readyz can
	// answer a moment before the stream port accepts: wait for both.
	ready := func() bool {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.base()+"/readyz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return false
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		conn, err := net.Dial("tcp", c.stream)
		if err != nil {
			return false
		}
		conn.Close()
		return true
	}
	deadline := time.Now().Add(150 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-exited:
			return fmt.Errorf("corrd exited before it was ready")
		default:
		}
		if ready() {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("corrd not ready after 150s")
}

// kill stops the daemon with SIGKILL and waits until it is gone.
// SIGKILL leaves the page cache intact, so a restart afterwards tests
// replay, not the loss of unflushed bytes.
func (c *corrd) kill() {
	if c.cmd == nil || c.cmd.Process == nil {
		return
	}
	c.cmd.Process.Kill()
	<-c.exited
	c.cmd = nil
}

// procSample is what /proc says about the daemon at one instant.
type procSample struct {
	userS, sysS  float64
	rssMB, hwmMB float64
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go runs on.
const clockTick = 100

func (c *corrd) proc() (procSample, error) {
	var p procSample
	dir := filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc stat line")
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	p.userS, p.sysS = ut/clockTick, st/clockTick

	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		var dst *float64
		switch {
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &p.hwmMB
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &p.rssMB
		default:
			continue
		}
		if f := strings.Fields(line); len(f) >= 2 {
			kb, _ := strconv.ParseFloat(f[1], 64)
			*dst = kb / 1024
		}
	}
	return p, nil
}
