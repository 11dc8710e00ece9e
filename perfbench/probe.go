package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machines this benchmark runs on change speed while it runs: on a
// shared 2-vCPU virtual machine the same fixed loop takes anywhere from 1×
// to 2× its best time, in stretches of a second to several minutes, and the
// stretches differ between the two vCPUs. A latency measured in wall-clock
// milliseconds then tells more about the neighbours than about the program.
// The benchmark therefore times a fixed probe next to its measured units and
// reports reference milliseconds: a unit's wall time scaled by the probe's
// reference time over its measured time, that is, the time the unit would
// have taken on a machine where the probe runs at the reference speed. The
// probe is the benchmark's own code, so a change to the program moves the
// scaled time exactly as much as the wall time; a change of machine speed
// moves both the unit and the probe, and largely cancels.

// Probe kernel: a profit-fill-like loop of min-sum products of topic vectors
// into a matrix, one row of probeReviewers cells over probeTopics topics at
// a time. probeRowRef, the time one core takes for one row, defines the
// reference speed.
const (
	probeReviewers = 175
	probeTopics    = 40
	probeRowRef    = 11400 * time.Nanosecond
)

// The two probes. The closed loops and the set-up rounds pause between
// units and time a large probe on every core there. The open loop's reader
// cannot stop the daemon's other work, so it times a small probe on its own
// core after every read.
const (
	unitProbeRows = 350
	readProbeRows = 8
)

// probe is a fixed CPU task timed next to the measured units.
type probe struct {
	papers, reviewers [][]float64
	out               []float64
	workers           int
}

// newProbe builds a probe of rows rows split over workers goroutines.
func newProbe(rows, workers int) *probe {
	rng := rand.New(rand.NewSource(1))
	vecs := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, probeTopics)
			for j := range out[i] {
				out[i][j] = rng.Float64()
			}
		}
		return out
	}
	p := &probe{
		papers: vecs(rows), reviewers: vecs(probeReviewers),
		out:     make([]float64, rows*probeReviewers),
		workers: workers,
	}
	p.run() // the first run pays for the output's page faults
	return p
}

// ref is the probe's time at the reference speed.
func (p *probe) ref() time.Duration {
	return probeRowRef * time.Duration(len(p.papers)) / time.Duration(p.workers)
}

// run times one probe; with one worker it runs on the calling goroutine.
func (p *probe) run() time.Duration {
	t0 := time.Now()
	if p.workers == 1 {
		p.rows(0)
		return time.Since(t0)
	}
	var wg sync.WaitGroup
	wg.Add(p.workers)
	for w := range p.workers {
		go func(w int) {
			defer wg.Done()
			p.rows(w)
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

// rows fills the rows of worker w.
func (p *probe) rows(w int) {
	for i := w; i < len(p.papers); i += p.workers {
		pv, row := p.papers[i], p.out[i*probeReviewers:(i+1)*probeReviewers]
		for r, rv := range p.reviewers {
			s := 0.0
			for j, x := range pv {
				s += min(x, rv[j])
			}
			row[r] = s
		}
	}
}

// cpuTicks returns the machine's cumulative CPU ticks from /proc/stat: the
// ticks the hypervisor stole from its virtual CPUs, and all ticks.
func cpuTicks() (steal, total uint64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat line %q: %w", line, err)
		}
		if i < 8 { // guest time is counted in user time already
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// samples are measured units and the probe times taken with them.
type samples struct {
	units  []time.Duration
	probes []time.Duration
	ref    time.Duration // the probes' time at the reference speed
	// bracketed: probes[i] ran just before units[i] and probes[i+1] just
	// after it, and each unit is scaled by the two. Otherwise every unit is
	// scaled by the median probe.
	bracketed bool
}

// scaledMS returns the units in reference milliseconds, ascending.
func (s *samples) scaledMS() []float64 {
	out := make([]time.Duration, len(s.units))
	med := median(durationsMS(s.probes)) * 1e6 // ns
	for i, u := range s.units {
		p := med
		if s.bracketed {
			p = float64(s.probes[i]+s.probes[i+1]) / 2
		}
		out[i] = time.Duration(float64(u) * float64(s.ref) / p)
	}
	return durationsMS(out)
}
