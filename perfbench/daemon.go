package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles the repository's cmd/wgrap-serve into dir and
// returns the binary's path. root is the repository root.
func buildServer(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "wgrap-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wgrap-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building wgrap-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running wgrap-serve child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	boot    time.Duration // spawn until the listening line
	drained chan struct{} // closed once the child's stdout is fully read
}

// readyLine prefixes the line wgrap-serve prints once it accepts requests.
const readyLine = "wgrap-serve: listening on "

// startDaemon spawns wgrap-serve on a free loopback port with durable
// tenants under dataDir and waits until it accepts requests.
func startDaemon(bin, dataDir string) (*daemon, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting wgrap-serve: %w", err)
	}
	// A daemon that never gets ready is killed, which closes its stdout and
	// ends the scan below.
	killer := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if url, ok := strings.CutPrefix(sc.Text(), readyLine); ok {
			d.url = strings.TrimSpace(url)
			break
		}
	}
	killer.Stop()
	d.boot = time.Since(t0)
	go func() {
		defer close(d.drained)
		for sc.Scan() {
		}
	}()
	if d.url == "" {
		_ = cmd.Process.Kill()
		<-d.drained
		_ = cmd.Wait()
		return nil, fmt.Errorf("wgrap-serve exited before it was ready")
	}
	return d, nil
}

// peakRSSMB reads the daemon's peak resident set size (VmHWM) from procfs.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading daemon memory: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuTime returns the CPU time all of the daemon's threads have run, from
// their scheduler statistics.
func (d *daemon) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited since the listing
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s schedstat %q: %w", t.Name(), raw, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// waitIdle waits, up to maxWait, until the daemon runs less than idleCPU of
// CPU time in an idlePoll interval: a response can reach the client before
// the daemon has finished its own work on the request (garbage collection,
// journal flushes), and that work must not overlap a probe.
func (d *daemon) waitIdle() error {
	const (
		idlePoll = time.Millisecond
		idleCPU  = 50 * time.Microsecond
		maxWait  = 100 * time.Millisecond
	)
	prev, err := d.cpuTime()
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(maxWait); time.Now().Before(deadline); {
		time.Sleep(idlePoll)
		cur, err := d.cpuTime()
		if err != nil {
			return err
		}
		if cur-prev < idleCPU {
			return nil
		}
		prev = cur
	}
	return nil
}

// stop shuts the daemon down gracefully (SIGTERM drains in-flight requests
// and closes every journal), killing it if it does not exit in time, and
// waits for the process to end.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = d.cmd.Process.Kill()
	}
	killer := time.AfterFunc(20*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer killer.Stop()
	<-d.drained
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("wgrap-serve: %w", err)
	}
	return nil
}
