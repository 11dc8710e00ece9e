package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/client"
)

// config is one benchmark invocation.
type config struct {
	serverBin string        // wgrap-serve binary
	work      string        // scratch directory for daemon data
	spansDir  string        // where a traced run writes its spans
	seed      int64         // input seed
	window    time.Duration // measurement window
	sc        scale
	log       io.Writer // metric lines
}

// tally counts the ops a run attempted and the ones that failed, either by
// an error or by a wrong output.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// run is one workload's measurement state.
type run struct {
	cfg  config
	w    workload
	in   *inputs
	pr   *probe
	d    *daemon // the running daemon, if any
	t    tally
	out  []metric
	dirs int // data directories handed out
}

// probe times one probe once the daemon and this process have finished
// their work on the last request, so the probe measures the machine and
// not the program.
func (r *run) probe() time.Duration {
	if r.d != nil {
		if err := r.d.waitIdle(); err != nil {
			r.t.fail("probe: %v", err)
		}
	}
	runtime.GC()
	return r.pr.run()
}

func (r *run) report(name string, value float64, unit string, n int) {
	r.out = append(r.out, metric{name, value, unit, n})
	fmt.Fprintf(r.cfg.log, "%s %s %.6g %s n=%d\n", r.w.name, name, value, unit, n)
}

// note prints a diagnostic line that is not a metric.
func (r *run) note(format string, args ...any) {
	fmt.Fprintf(r.cfg.log, "# %s: %s\n", r.w.name, fmt.Sprintf(format, args...))
}

// reportLatency reports the p50 and p75 of the units, scaled to the
// reference speed where they were probed, or a failure when there are too
// few for the p75. The tail is the p75, not a higher one: on a shared
// machine the p90 of view-heavy rose by half or more in two or three runs
// out of ten, too often for any bound up to 0.25, while its p75 moved about
// as much as its median (README.md). The p90 and the wall-clock
// percentiles go to a note.
func (r *run) reportLatency(s *samples) {
	ms := s.scaledMS()
	p50, ok50 := percentile(ms, 0.50)
	p75, ok75 := percentile(ms, 0.75)
	if !ok50 || !ok75 {
		r.t.fail("%d measured units are too few for a p75", len(ms))
		return
	}
	r.report("latency_ms_p50", p50, "ms", len(ms))
	r.report("latency_ms_p75", p75, "ms", len(ms))
	if p90, ok := percentile(ms, 0.90); ok {
		r.note("latency p90 %.4f ms", p90)
	}
	wall := durationsMS(s.units)
	w50, _ := percentile(wall, 0.50)
	w75, _ := percentile(wall, 0.75)
	r.note("wall-clock latency p50 %.4f ms, p75 %.4f ms; probe median %.4f ms, reference %.4f ms",
		w50, w75, median(durationsMS(s.probes)), float64(s.ref)/1e6)
}

// dataDir hands out a fresh directory for durable tenants.
func (r *run) dataDir(kind string) string {
	r.dirs++
	return filepath.Join(r.cfg.work, fmt.Sprintf("%s-%d", kind, r.dirs))
}

// exec sends one op, times it, and checks its output against the mirror
// (nil skips the check).
func (r *run) exec(ctx context.Context, t *tally, b backend, m *mirror, o op) (time.Duration, outcome) {
	t0 := time.Now()
	out, err := b.do(ctx, o)
	d := time.Since(t0)
	t.attempted++
	if err != nil {
		t.fail("%s: %v", opName(o.kind), err)
		return d, out
	}
	if m == nil {
		return d, out
	}
	for _, e := range o.edits {
		m.apply(e)
	}
	if out.res != nil {
		if err := m.check(out.res); err != nil {
			t.fail("%s returned a wrong assignment: %v", opName(o.kind), err)
		}
	}
	return d, out
}

func opName(k opKind) string {
	return [...]string{"solve", "resolve", "resolve_async", "view", "edit"}[k]
}

// spawn starts a daemon and creates the tenant on it, timing the set-up
// from spawn to tenant ready.
func (r *run) spawn(ctx context.Context, id string) (*daemon, *clientBackend, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(r.cfg.serverBin, r.dataDir("data"))
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := client.Open(d.url)
	if err != nil {
		_ = d.stop()
		return nil, nil, 0, err
	}
	b := &clientBackend{c: c}
	r.t.attempted++
	if err := b.create(ctx, id, r.in.tenants[0].req); err != nil {
		_ = c.Close()
		_ = d.stop()
		return nil, nil, 0, fmt.Errorf("create tenant: %w", err)
	}
	return d, b, time.Since(t0), nil
}

// setup spawns a daemon and creates the tenant setupRounds times, each
// round after a probe, and reports the median set-up time in reference
// seconds; the last daemon stays up for measuring.
func (r *run) setup(ctx context.Context, id string) (*daemon, *clientBackend, error) {
	s := samples{ref: r.pr.ref(), bracketed: true}
	for round := 0; ; round++ {
		s.probes = append(s.probes, r.probe())
		d, b, took, err := r.spawn(ctx, id)
		if err != nil {
			return nil, nil, err
		}
		s.units = append(s.units, took)
		r.d = d
		if round+1 == r.cfg.sc.setupRounds {
			s.probes = append(s.probes, r.probe())
			r.report("setup_s", median(s.scaledMS())/1e3, "s", len(s.units))
			r.note("wall-clock set-up median %.6f s", median(durationsMS(s.units))/1e3)
			return d, b, nil
		}
		_ = b.c.Close()
		r.d = nil
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// measure is the untraced run: set-up, warm-up, the measurement window,
// then the daemon's peak memory and the final assignment's quality.
func (r *run) measure(ctx context.Context) error {
	d, b, err := r.setup(ctx, "bench-0")
	if err != nil {
		return err
	}
	defer func() {
		_ = b.c.Close()
		if err := d.stop(); err != nil {
			r.t.fail("%v", err)
		}
	}()
	steal0, total0, err := cpuTicks()
	if err != nil {
		return err
	}
	var units *samples
	var cov float64
	if r.in.reader != nil {
		units, cov = r.openLoop(ctx, b)
	} else {
		units, cov = r.closedLoop(ctx, b)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	r.reportLatency(units)
	if steal, total, err := cpuTicks(); err == nil && total > total0 {
		r.note("the hypervisor stole %.2f%% of the CPU time during the run", 100*float64(steal-steal0)/float64(total-total0))
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	r.report("peak_rss_mb", rss, "MB", 1)
	r.report("avg_coverage", cov, "ratio", 1)
	if ref, ok := r.cfg.sc.reference[r.w.name]; ok && r.cfg.seed == 1 && !closeTo(cov, ref) {
		r.t.fail("average coverage %.12g differs from the seed-1 reference %.12g", cov, ref)
	}
	return nil
}

// enough reports whether a closed loop may stop: the window is over and it
// has its minimum of units. The hard cap bounds a run on a machine too slow
// for the minimum.
func (r *run) enough(start time.Time, units int) bool {
	elapsed := time.Since(start)
	return elapsed >= r.cfg.window && units >= r.cfg.sc.minUnits || elapsed >= 3*r.cfg.window+30*time.Second
}

// openTenant runs the untimed ops that open a fresh tenant.
func (r *run) openTenant(ctx context.Context, b backend, t *tenantInputs, m *mirror) {
	for _, o := range t.open {
		r.exec(ctx, &r.t, b, m, o)
	}
}

// closedLoop replays whole passes of the op stream, one op at a time,
// until the window ends. It stops only after a whole cycle of passes, one
// per tenant: every cycle holds the same units, so the run's latencies never
// depend on where the window cut it. A unit's latency is the sum of its ops'
// round trips; the checks between ops are not timed, and a probe runs before
// every unit. The average coverage is the mean over the tenants of their
// final assignments'.
func (r *run) closedLoop(ctx context.Context, b *clientBackend) (s *samples, cov float64) {
	in := r.in
	first := in.tenants[0]
	m := newMirror(first.base)
	s = &samples{ref: r.pr.ref(), bracketed: true}
	if in.fresh {
		wb := &clientBackend{c: b.c}
		r.t.attempted++
		if err := wb.create(ctx, "warmup", first.req); err != nil {
			r.t.fail("create warm-up tenant: %v", err)
			return s, 0
		}
		wm := newMirror(first.base)
		r.openTenant(ctx, wb, first, wm)
		for _, o := range first.pass {
			if o.unit >= r.w.warmup {
				break
			}
			r.exec(ctx, &r.t, wb, wm, o)
		}
		if err := wb.drop(ctx); err != nil {
			r.t.fail("drop warm-up tenant: %v", err)
		}
	} else {
		for range r.w.warmup {
			for _, o := range first.pass {
				r.exec(ctx, &r.t, b, m, o)
			}
		}
	}

	r.openTenant(ctx, b, first, m)
	start := time.Now()
	objective := make([]float64, len(in.tenants))
	var byKind [opEdit + 1]time.Duration // measured time by op kind
	for passes := 0; ctx.Err() == nil; passes++ {
		k := passes % len(in.tenants)
		t := in.tenants[k]
		if passes > 0 && in.fresh {
			if err := b.drop(ctx); err != nil {
				r.t.fail("drop tenant: %v", err)
			}
			r.t.attempted++
			if err := b.create(ctx, fmt.Sprintf("bench-%d", passes), t.req); err != nil {
				r.t.fail("create tenant: %v", err)
				break
			}
			m = newMirror(t.base)
			r.openTenant(ctx, b, t, m)
		}
		var last outcome
		var dur time.Duration
		for i, o := range t.pass {
			if i == 0 || t.pass[i-1].unit != o.unit {
				s.probes = append(s.probes, r.probe())
			}
			d, out := r.exec(ctx, &r.t, b, m, o)
			if out.res != nil {
				last = out
			}
			dur += d
			byKind[o.kind] += d
			if i+1 == len(t.pass) || t.pass[i+1].unit != o.unit {
				s.units = append(s.units, dur)
				dur = 0
			}
		}
		if seq, err := b.seq(ctx); err != nil {
			r.t.fail("status: %v", err)
		} else if seq != m.edits {
			r.t.fail("tenant seq %d after %d accepted edits", seq, m.edits)
		}
		switch {
		case last.res == nil:
			r.t.fail("pass %d returned no assignment", passes)
		case passes == k:
			objective[k] = last.res.Score
			cov += last.res.AverageCoverage / float64(len(in.tenants))
		case !closeTo(objective[k], last.res.Score):
			r.t.fail("pass %d objective %.12g, first pass of its tenant %.12g", passes, last.res.Score, objective[k])
		}
		if k+1 == len(in.tenants) && r.enough(start, len(s.units)) {
			break
		}
	}
	s.probes = append(s.probes, r.probe())
	// A unit that mixes op kinds moves with each kind only by its share of
	// the unit's time.
	var total time.Duration
	for _, d := range byKind {
		total += d
	}
	var shares []string
	for k, d := range byKind {
		if d > 0 && d < total {
			shares = append(shares, fmt.Sprintf("%s %.1f%%", opName(opKind(k)), 100*d.Seconds()/total.Seconds()))
		}
	}
	if len(shares) > 0 {
		r.note("measured time by op: %s", strings.Join(shares, ", "))
	}
	return s, cov
}

// openLoop runs the reader and the writer on their seeded schedules, each
// on its own goroutine over the one client. A view's latency runs from the
// time it was due, so a stall also delays the views queued behind it. After
// every read the reader times a small single-core probe, and the run's
// views are scaled by the median of those probes: a probe on every core
// would stall the daemon's other work on the reads' schedule.
func (r *run) openLoop(ctx context.Context, b *clientBackend) (s *samples, cov float64) {
	in := r.in
	m := newMirror(in.tenants[0].base)
	r.openTenant(ctx, b, in.tenants[0], m)
	// produced maps each published view version to its assignment.
	produced := map[uint64][][]int{}
	_, base := r.exec(ctx, &r.t, b, m, op{kind: opView})
	if base.res != nil {
		produced[base.version] = base.res.Groups
	}
	for range r.w.warmup {
		r.exec(ctx, &r.t, b, nil, op{kind: opView})
	}
	rp := newProbe(readProbeRows, 1)
	s = &samples{ref: rp.ref()}
	var rt, wt tally
	seen := map[uint64][][]int{}
	var lag []time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() {
		defer wg.Done()
		for _, o := range in.reader {
			due := start.Add(o.due)
			if !sleepUntil(ctx, due) {
				return
			}
			lag = append(lag, time.Since(due))
			_, out := r.exec(ctx, &rt, b, nil, o)
			s.units = append(s.units, time.Since(due))
			s.probes = append(s.probes, rp.run())
			if out.res != nil && seen[out.version] == nil {
				seen[out.version] = out.res.Groups
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, o := range in.writer {
			if !sleepUntil(ctx, start.Add(o.due)) {
				return
			}
			if _, out := r.exec(ctx, &wt, b, m, o); out.res != nil {
				produced[out.version] = out.res.Groups
			}
		}
	}()
	wg.Wait()
	r.t.merge(&rt)
	r.t.merge(&wt)

	for v, g := range seen {
		if want, ok := produced[v]; !ok {
			r.t.fail("view version %d was never published by a solve", v)
		} else if !sameGroups(g, want) {
			r.t.fail("view version %d shows another assignment than its solve", v)
		}
	}
	if p99, ok := percentile(durationsMS(lag), 0.99); ok {
		r.note("generator lag p99 %.3f ms over %d sends", p99, len(lag))
	}
	if seq, err := b.seq(ctx); err != nil {
		r.t.fail("status: %v", err)
	} else if seq != m.edits {
		r.t.fail("tenant seq %d after %d accepted edits", seq, m.edits)
	}
	if _, out := r.exec(ctx, &r.t, b, m, op{kind: opResolve}); out.res != nil {
		cov = out.res.AverageCoverage
	}
	return s, cov
}

// sleepUntil waits for t; it reports false when ctx ends first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runWorkload generates the workload's inputs from the seed and runs it,
// untraced or traced.
func runWorkload(ctx context.Context, cfg config, w workload, traced bool) (*run, error) {
	in, err := w.build(cfg.seed, cfg.window, cfg.sc)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	r := &run{cfg: cfg, w: w, in: in, pr: newProbe(unitProbeRows, runtime.GOMAXPROCS(0))}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	if traced {
		err = r.traced(ctx)
	} else {
		err = r.measure(ctx)
	}
	return r, err
}
