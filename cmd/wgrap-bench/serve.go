package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	wgrap "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// serveConfig sizes the -serve request-level workload. The edit scripts are
// deterministic so CI runs are comparable across commits.
type serveConfig struct {
	papers    int
	reviewers int
	topics    int
	delta     int
	resolves  int // edit-burst + warm-resolve request cycles
	editBurst int // edits per POST /edits request
	views     int // GET /view requests sampled per cycle
}

// runServe measures request-level latency of the wgrap-serve HTTP surface:
// it boots the real handler on a loopback listener, drives one tenant
// through the repro/client remote backend — cold solve, then deterministic
// edit-batch + warm-resolve cycles with view reads between them — and
// reports per-endpoint p50/p99 as `go test -bench`-format lines
// (BenchmarkServeHTTP/...), so the returned map plugs into the same snapshot
// and regression-gate machinery as real benchmarks. Unlike -concurrent
// (which times the in-process Solver surface), every number here includes a
// loopback TCP round trip, and JSON encoding except where a view read is
// answered 304 (all views of a cycle but the first).
func runServe(stdout io.Writer, cfg serveConfig) (map[string]Result, error) {
	reg, err := tenant.NewRegistry("")
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	member, err := cluster.NewMember(reg, cluster.Config{
		Self:  "n1",
		Nodes: []wire.NodeInfo{{ID: "n1", Addr: ln.Addr().String(), Alive: true}},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	srv := &http.Server{Handler: serve.Handler(reg, member)}
	serr := make(chan error, 1)
	go func() { serr <- srv.Serve(ln) }()
	defer srv.Close()

	c, err := client.Open("http://" + ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()

	// MethodSDGA without refinement, matching the -concurrent workload: the
	// numbers isolate the serving surface (JSON + TCP + warm re-solve), not
	// the anytime refinement budget.
	in := serveWireInstance(cfg)
	if _, err := c.CreateTenant(ctx, &wire.CreateRequest{
		ID: "bench", Instance: in, Config: wire.TenantConfig{Method: string(wgrap.MethodSDGA), Seed: 1},
	}); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := c.Solve(ctx, "bench"); err != nil {
		return nil, err
	}
	coldLat := time.Since(t0)

	// The request cycles: one edit batch, cfg.views view reads, one warm
	// resolve. Edits cycle withdraw/restore/conflict like the -concurrent
	// writer so the warm re-solve work matches the in-process workload.
	var editLat, viewLat, resolveLat []time.Duration
	rng := rand.New(rand.NewSource(99))
	start := time.Now()
	for i := 0; i < cfg.resolves; i++ {
		edits := make([]wire.Edit, 0, cfg.editBurst)
		for e := 0; e < cfg.editBurst; e++ {
			p := rng.Intn(cfg.papers)
			switch e % 3 {
			case 0:
				edits = append(edits, wire.Edit{Op: wire.OpWithdraw, P: p})
			case 1:
				edits = append(edits, wire.Edit{Op: wire.OpRestore, P: p})
			case 2:
				edits = append(edits, wire.Edit{Op: wire.OpAddConflict, R: rng.Intn(cfg.reviewers), P: p})
			}
		}
		t0 = time.Now()
		if _, err := c.Edit(ctx, "bench", edits...); err != nil {
			return nil, fmt.Errorf("edit batch %d: %w", i, err)
		}
		editLat = append(editLat, time.Since(t0))
		for v := 0; v < cfg.views; v++ {
			t0 = time.Now()
			if _, err := c.View(ctx, "bench"); err != nil {
				return nil, fmt.Errorf("view %d/%d: %w", i, v, err)
			}
			viewLat = append(viewLat, time.Since(t0))
		}
		t0 = time.Now()
		if _, err := c.Resolve(ctx, "bench"); err != nil {
			return nil, fmt.Errorf("resolve %d: %w", i, err)
		}
		resolveLat = append(resolveLat, time.Since(t0))
	}
	window := time.Since(start)

	sort.Slice(editLat, func(i, j int) bool { return editLat[i] < editLat[j] })
	sort.Slice(viewLat, func(i, j int) bool { return viewLat[i] < viewLat[j] })
	sort.Slice(resolveLat, func(i, j int) bool { return resolveLat[i] < resolveLat[j] })

	fmt.Fprintf(stdout, "serve: P=%d R=%d over HTTP loopback: cold solve %v, then %d cycles (%d-edit batch + %d views + warm resolve) in %v\n",
		cfg.papers, cfg.reviewers, coldLat.Round(time.Millisecond), cfg.resolves, cfg.editBurst, cfg.views, window.Round(time.Millisecond))
	fmt.Fprintf(stdout, "serve: request latency edit p50=%v p99=%v; view p50=%v p99=%v; resolve p50=%v p99=%v\n",
		quantile(editLat, 0.50).Round(time.Microsecond), quantile(editLat, 0.99).Round(time.Microsecond),
		quantile(viewLat, 0.50).Round(time.Microsecond), quantile(viewLat, 0.99).Round(time.Microsecond),
		quantile(resolveLat, 0.50).Round(time.Microsecond), quantile(resolveLat, 0.99).Round(time.Microsecond))

	out := map[string]Result{
		"BenchmarkServeHTTP/edit-p50":    {Iterations: len(editLat), NsPerOp: float64(quantile(editLat, 0.50).Nanoseconds())},
		"BenchmarkServeHTTP/edit-p99":    {Iterations: len(editLat), NsPerOp: float64(quantile(editLat, 0.99).Nanoseconds())},
		"BenchmarkServeHTTP/view-p50":    {Iterations: len(viewLat), NsPerOp: float64(quantile(viewLat, 0.50).Nanoseconds())},
		"BenchmarkServeHTTP/view-p99":    {Iterations: len(viewLat), NsPerOp: float64(quantile(viewLat, 0.99).Nanoseconds())},
		"BenchmarkServeHTTP/resolve-p50": {Iterations: len(resolveLat), NsPerOp: float64(quantile(resolveLat, 0.50).Nanoseconds())},
		"BenchmarkServeHTTP/resolve-p99": {Iterations: len(resolveLat), NsPerOp: float64(quantile(resolveLat, 0.99).Nanoseconds())},
		"BenchmarkServeHTTP/cold-solve":  {Iterations: 1, NsPerOp: float64(coldLat.Nanoseconds())},
	}
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "%s \t%d\t%.0f ns/op\n", name, out[name].Iterations, out[name].NsPerOp)
	}

	if err := srv.Close(); err != nil {
		return nil, err
	}
	if err := <-serr; err != nil && err != http.ErrServerClosed {
		return nil, err
	}
	return out, nil
}

// serveWireInstance mirrors concurrentInstance (seed-8 normalized random
// topic vectors) in wire form, so -serve latencies are measured against the
// same instance family as -concurrent and the gated benchmarks.
func serveWireInstance(cfg serveConfig) *wire.Instance {
	rng := rand.New(rand.NewSource(8))
	vec := func() []float64 {
		v := make(wgrap.Vector, cfg.topics)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v.Normalized()
	}
	in := &wire.Instance{GroupSize: cfg.delta}
	for i := 0; i < cfg.papers; i++ {
		in.Papers = append(in.Papers, wire.Paper{Topics: vec()})
	}
	for i := 0; i < cfg.reviewers; i++ {
		in.Reviewers = append(in.Reviewers, wire.Reviewer{Topics: vec()})
	}
	return in
}
