package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	wgrap "repro"
	"repro/client"
	"repro/internal/wire"
)

// TestMain doubles the test binary as the daemon: with WGRAP_SERVE_CHILD=1
// it runs the real main loop instead of the tests, which lets the
// crash-recovery test boot, SIGKILL and restart actual server processes
// without needing the go toolchain at test runtime.
func TestMain(m *testing.M) {
	if os.Getenv("WGRAP_SERVE_CHILD") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// daemon is one child server process.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon boots a child server with args and waits for its readiness
// line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WGRAP_SERVE_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "wgrap-serve: listening on "); ok {
				urlc <- rest
			}
		}
	}()
	select {
	case url := <-urlc:
		d := &daemon{cmd: cmd, url: url}
		t.Cleanup(func() { d.kill() })
		return d
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon %q never reported its listening address", args)
		return nil
	}
}

// kill SIGKILLs the daemon — the crash under test: no drain, no journal
// close, exactly what a power cut or OOM kill leaves behind.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

// terminate asks for a graceful shutdown and returns the exit error.
func (d *daemon) terminate(t *testing.T) error {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("daemon ignored SIGTERM")
		return nil
	}
}

func crashTestInstance() *wire.Instance {
	rng := rand.New(rand.NewSource(1234))
	vec := func() []float64 {
		v := make(wgrap.Vector, 6)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v.Normalized()
	}
	in := &wire.Instance{GroupSize: 3}
	for i := 0; i < 20; i++ {
		in.Papers = append(in.Papers, wire.Paper{ID: fmt.Sprintf("p%d", i), Topics: vec()})
	}
	for i := 0; i < 16; i++ {
		in.Reviewers = append(in.Reviewers, wire.Reviewer{ID: fmt.Sprintf("r%d", i), Topics: vec()})
	}
	return in
}

// TestCrashRecovery is the end-to-end kill-and-restart property: a real
// daemon process on loopback, a remote client driving a durable tenant
// through solve and edits, SIGKILL mid-session, a fresh daemon over the same
// data directory — and the replayed tenant must report the same accepted-edit
// sequence and re-solve to the same objective at 1e-9, which must also equal
// what the embedded (mem://) backend computes for the identical history.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	dataDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	d1 := startDaemon(t, "-addr", "127.0.0.1:0", "-data", dataDir)
	assertRingOfOne(t, d1.url)
	c, err := client.Open(d1.url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in := crashTestInstance()
	cfg := wire.TenantConfig{Omega: 3, Seed: 11, FsyncIntervalNS: -1} // fsync every edit: deterministic loss window
	if _, err := c.CreateTenant(ctx, &wire.CreateRequest{ID: "icml", Instance: in, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx, "icml"); err != nil {
		t.Fatal(err)
	}
	edits := []wire.Edit{
		{Op: wire.OpAddConflict, R: 3, P: 2},
		{Op: wire.OpWithdraw, P: 9},
		{Op: wire.OpAddConflict, R: 1, P: 12},
		{Op: wire.OpWithdraw, P: 4},
		{Op: wire.OpRestore, P: 9},
	}
	if _, err := c.Edit(ctx, "icml", edits...); err != nil {
		t.Fatal(err)
	}
	preKill, err := c.Resolve(ctx, "icml")
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx, "icml")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != uint64(len(edits)) || !st.Durable {
		t.Fatalf("pre-kill status: %+v", st)
	}

	// The crash: SIGKILL, mid-session, with acknowledged (and fsynced) edits
	// in the journal and no graceful close.
	d1.kill()

	d2 := startDaemon(t, "-addr", "127.0.0.1:0", "-data", dataDir)
	c2, err := client.Open(d2.url)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Status(ctx, "icml")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Seq != st.Seq {
		t.Fatalf("replayed Seq = %d, want %d", st2.Seq, st.Seq)
	}
	if st2.Active != st.Active {
		t.Fatalf("replayed active papers = %d, want %d", st2.Active, st.Active)
	}
	postKill, err := c2.Resolve(ctx, "icml")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(postKill.Score-preKill.Score) > 1e-9 {
		t.Fatalf("replayed objective %v != pre-kill %v", postKill.Score, preKill.Score)
	}

	// Cross-check against the embedded backend: the same history, cold.
	mem, err := client.Open("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := mem.CreateTenant(ctx, &wire.CreateRequest{ID: "icml", Instance: in, Config: wire.TenantConfig{Omega: 3, Seed: 11}}); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Edit(ctx, "icml", edits...); err != nil {
		t.Fatal(err)
	}
	ref, err := mem.Solve(ctx, "icml")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(postKill.Score-ref.Score) > 1e-9 {
		t.Fatalf("replayed objective %v != embedded cold solve %v", postKill.Score, ref.Score)
	}

	// The survivor keeps journaling: edit, then a clean SIGTERM shutdown must
	// exit 0 (the goroutine-leak gate lives in internal/serve's tests).
	if _, err := c2.Edit(ctx, "icml", wire.Edit{Op: wire.OpWithdraw, P: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d2.terminate(t); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}

	d3 := startDaemon(t, "-addr", "127.0.0.1:0", "-data", dataDir)
	c3, err := client.Open(d3.url)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	st3, err := c3.Status(ctx, "icml")
	if err != nil {
		t.Fatal(err)
	}
	if st3.Seq != st.Seq+1 {
		t.Fatalf("post-shutdown Seq = %d, want %d", st3.Seq, st.Seq+1)
	}
	if err := d3.terminate(t); err != nil {
		t.Fatalf("final shutdown failed: %v", err)
	}
}
