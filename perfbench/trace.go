package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/wire"
)

// span is one timed interval of the traced run: a layer's work on one op
// (op ≥ 0 indexes the replayed stream, op < 0 the untimed ops that open a
// tenant) or on one set-up round.
type span struct {
	Name  string `json:"name"`
	Op    int    `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps the spans in memory, with per-(name, op) totals for the
// self-time arithmetic, until the run writes them out.
type tracer struct {
	origin time.Time
	spans  []span
	sums   map[string]map[int]time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), sums: map[string]map[int]time.Duration{}}
}

func (t *tracer) add(name string, op int, t0, t1 time.Time) {
	t.spans = append(t.spans, span{name, op, t0.Sub(t.origin).Nanoseconds(), t1.Sub(t.origin).Nanoseconds()})
	if t.sums[name] == nil {
		t.sums[name] = map[int]time.Duration{}
	}
	t.sums[name][op] += t1.Sub(t0)
}

func (t *tracer) ms(name string, op int) float64 {
	return float64(t.sums[name][op].Nanoseconds()) / 1e6
}

// The depths a traced stream replays at, outermost first. Each depth's span
// covers the next one's work on the same op, so a layer's self time is its
// span minus the next depth's.
const (
	depthHTTP    = "http"  // the daemon: client, HTTP, serve, wire, and all below
	depthMem     = "mem"   // the tenant registry in process (mem:///dir)
	depthSolver  = "wgrap" // the durable wgrap.Solver
	depthSession = "cra"   // the bare cra.Session
)

var depths = []string{depthHTTP, depthMem, depthSolver, depthSession}

// rotated returns the k-th item of items in the order that starts at the
// turn-th item. Runs that time the same work at several depths rotate their
// order every turn, so no depth always pays for the garbage or the cold
// caches the one before it left.
func rotated[T any](items []T, turn, k int) (int, T) {
	n := len(items)
	i := ((turn+k)%n + n) % n
	return i, items[i]
}

// traced is the traced run. Set-up rounds time every layer's share of
// creating the tenant. A prefix of the workload's op stream then replays at
// every depth in lockstep, and once more over HTTP alone; leaf probes append
// each op's edits to a journal and encode and decode its payloads; cold
// probes split a cold solve between the session, the engine and the flow
// layers.
func (r *run) traced(ctx context.Context) error {
	tr := newTracer()
	var d *daemon
	var hb *clientBackend
	defer func() {
		if d != nil {
			_ = hb.c.Close()
			if err := d.stop(); err != nil {
				r.t.fail("%v", err)
			}
		}
	}()

	rounds := r.cfg.sc.setupRounds
	for round := range rounds {
		if d != nil {
			_ = hb.c.Close()
			if err := d.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var took time.Duration
		var err error
		d, hb, took, err = r.spawn(ctx, "bench")
		if err != nil {
			d = nil
			return err
		}
		tr.add("create.boot", round, t0, t0.Add(d.boot))
		tr.add("create.http", round, t0.Add(d.boot), t0.Add(took))
		if err := r.traceCreate(ctx, tr, round); err != nil {
			return err
		}
	}
	setupSelf := func(minus ...string) (float64, int) {
		vals := make([]float64, rounds)
		for i := range vals {
			vals[i] = tr.ms(minus[0], i)
			for _, m := range minus[1:] {
				vals[i] -= tr.ms(m, i)
			}
		}
		return median(vals), rounds
	}
	report := func(name, unit string) func(float64, int) {
		return func(v float64, n int) { r.report(name, v, unit, n) }
	}
	report("serve.boot_ms", "ms")(setupSelf("create.boot"))
	report("wire.encode_instance_ms", "ms")(setupSelf("create.encode"))
	report("wire.decode_instance_ms", "ms")(setupSelf("create.decode"))
	report("serve.create_self_ms", "ms")(setupSelf("create.http", "create.mem", "create.encode", "create.decode"))
	report("tenant.create_self_ms", "ms")(setupSelf("create.mem", "create.wgrap"))
	report("wgrap.new_solver_self_ms", "ms")(setupSelf("create.wgrap", "create.durable", "create.cra"))
	report("durable.create_ms", "ms")(setupSelf("create.durable"))
	report("cra.new_session_ms", "ms")(setupSelf("create.cra"))

	stream, outs, segs, err := r.lockstep(ctx, tr, hb)
	if err != nil {
		return err
	}
	units := 0
	for _, o := range stream {
		units = max(units, o.unit+1)
	}
	if units == 0 {
		return fmt.Errorf("the traced replay completed no measured op")
	}

	// The same ops over HTTP alone, for the tracing overhead.
	var plain time.Duration
	for k, sg := range segs {
		b := &clientBackend{c: hb.c}
		r.t.attempted++
		if err := b.create(ctx, fmt.Sprintf("untraced-%d", k), sg.t.req); err != nil {
			return fmt.Errorf("create untraced tenant: %w", err)
		}
		r.openTenant(ctx, b, sg.t, newMirror(sg.t.base))
		for _, o := range stream[sg.lo:sg.hi] {
			d, _ := r.exec(ctx, &r.t, b, nil, o)
			plain += d
		}
		if err := b.drop(ctx); err != nil {
			r.t.fail("drop untraced tenant: %v", err)
		}
	}

	bytes := make([]int, len(stream))
	for i, o := range stream {
		t0 := time.Now()
		n, err := probeCodec(o, outs[i])
		tr.add("wire", i, t0, time.Now())
		if err != nil {
			r.t.fail("wire probe: %v", err)
		}
		bytes[i] = n
	}
	// A per-op metric is the median over the measured units of the unit's
	// total, so it sits beside the end-to-end median and a GC pause in one
	// unit does not move it. Background writer ops belong to no unit.
	perUnit := func(f func(i int) float64) (float64, int) {
		sums := make([]float64, units)
		for i, o := range stream {
			if o.unit >= 0 {
				sums[o.unit] += f(i)
			}
		}
		return median(sums), units
	}
	report("serve.op_self_ms", "ms")(perUnit(func(i int) float64 {
		return tr.ms(depthHTTP, i) - tr.ms(depthMem, i) - tr.ms("wire", i)
	}))
	report("wire.op_codec_ms", "ms")(perUnit(func(i int) float64 { return tr.ms("wire", i) }))
	report("tenant.op_self_ms", "ms")(perUnit(func(i int) float64 { return tr.ms(depthMem, i) - tr.ms(depthSolver, i) }))
	report("wgrap.op_self_ms", "ms")(perUnit(func(i int) float64 {
		return tr.ms(depthSolver, i) - tr.ms(depthSession, i) - tr.ms("durable.append", i)
	}))
	report("durable.append_ms", "ms")(perUnit(func(i int) float64 { return tr.ms("durable.append", i) }))
	report("durable.sync_ms", "ms")(perUnit(func(i int) float64 { return tr.ms("durable.sync", i) }))
	report("cra.op_ms", "ms")(perUnit(func(i int) float64 { return tr.ms(depthSession, i) }))
	report("wire.op_bytes", "B")(perUnit(func(i int) float64 { return float64(bytes[i]) }))
	traced := 0.0
	for i := range stream {
		traced += tr.ms(depthHTTP, i)
	}
	r.report("bench.trace_overhead_ratio", traced/(float64(plain.Nanoseconds())/1e6), "ratio", units)

	if err := r.coldProbes(ctx, tr, report); err != nil {
		return err
	}
	return r.writeSpans(tr)
}

// segment is the part of the replayed stream one tenant received.
type segment struct {
	t      *tenantInputs
	lo, hi int
}

// lockstep replays the workload's ops at every depth, tenant after tenant
// as the measured loop does, until the first unit boundary after three
// quarters of the window. Each op runs at every depth back to back, so a
// layer's self time is the difference of two adjacent timings of the same
// op. It returns the replayed ops, with units numbered across tenants, the
// daemon's outcome of each, and each tenant's segment of them.
func (r *run) lockstep(ctx context.Context, tr *tracer, hb *clientBackend) ([]op, []outcome, []segment, error) {
	// The journal probe appends each op's edits as the Solver journals them
	// and then forces them to disk. Its interval is long enough that the
	// group-commit flusher never syncs during the run, so the append span
	// holds the writes and the sync span the fsync.
	journal, err := durable.Create(r.dataDir("journal"), &durable.State{Instance: r.in.tenants[0].req.Instance}, time.Hour)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("journal probe: %w", err)
	}
	defer journal.Close()
	var seq uint64
	var stream []op
	var outs []outcome
	var segs []segment
	units := 0   // measured units replayed so far
	opening := 0 // ids of the untimed opening ops count down from -1
	start := time.Now()
	for k, t := range r.in.tenants {
		if k > 0 && time.Since(start) >= r.cfg.window*3/4 {
			break
		}
		backends, release, err := r.openDepths(ctx, hb, t, k)
		if err != nil {
			return nil, nil, nil, err
		}
		m := newMirror(t.base)
		step := func(id int, o op) outcome {
			outs := make([]outcome, len(backends))
			for j := range backends {
				d, b := rotated(backends, id, j)
				check := m
				if d > 0 {
					check = nil // lower depths are checked for parity with the daemon
				}
				t0 := time.Now()
				took, out := r.exec(ctx, &r.t, b, check, o)
				tr.add(depths[d], id, t0, t0.Add(took))
				outs[d] = out
			}
			for d, out := range outs[1:] {
				if out.res != nil && outs[0].res != nil && !sameGroups(out.res.Groups, outs[0].res.Groups) {
					r.t.fail("%s op %d: assignment differs from the daemon's", depths[d+1], id)
				}
			}
			t0 := time.Now()
			for _, e := range o.edits {
				seq++
				if err := journal.Append(durable.Record{Seq: seq, Edit: e}); err != nil {
					r.t.fail("journal probe: %v", err)
				}
			}
			t1 := time.Now()
			if err := journal.Sync(); err != nil {
				r.t.fail("journal probe: %v", err)
			}
			tr.add("durable.append", id, t0, t1)
			tr.add("durable.sync", id, t1, time.Now())
			return outs[0]
		}
		for _, o := range t.open {
			opening--
			step(opening, o)
		}
		base, lo, done := units, len(stream), false
		ops := r.traceOps(t)
		for i, o := range ops {
			if o.unit >= 0 {
				o.unit += base
				units = max(units, o.unit+1)
			}
			outs = append(outs, step(len(stream), o))
			stream = append(stream, o)
			last := i+1 == len(ops) || ops[i+1].unit != ops[i].unit
			if done = ctx.Err() != nil || o.unit >= 0 && last && time.Since(start) >= r.cfg.window*3/4; done {
				break
			}
		}
		segs = append(segs, segment{t, lo, len(stream)})
		release()
		if done {
			break
		}
	}
	return stream, outs, segs, nil
}

// openDepths creates tenant t at every depth: on the daemon (where set-up
// already created the first tenant) and in process. release drops the
// tenants it created and closes the in-process clients.
func (r *run) openDepths(ctx context.Context, hb *clientBackend, t *tenantInputs, k int) ([]backend, func(), error) {
	backends := []backend{hb}
	first := 1
	if k > 0 {
		backends[0], first = &clientBackend{c: hb.c}, 0
	}
	var closers []func()
	var live []int // depths holding a tenant created here
	release := func() {
		for _, d := range live {
			if err := backends[d].drop(ctx); err != nil {
				r.t.fail("%s: drop tenant: %v", depths[d], err)
			}
		}
		for _, c := range closers {
			c()
		}
	}
	for _, depth := range depths[1:] {
		b, closeFn, err := r.newBackend(depth)
		if err != nil {
			release()
			return nil, nil, err
		}
		closers = append(closers, closeFn)
		backends = append(backends, b)
	}
	for d := first; d < len(backends); d++ {
		r.t.attempted++
		if err := backends[d].create(ctx, fmt.Sprintf("bench-%d", k), t.req); err != nil {
			release()
			return nil, nil, fmt.Errorf("%s: create tenant: %w", depths[d], err)
		}
		live = append(live, d)
	}
	return backends, release, nil
}

// coldProbeCount is how many cold solves split the cold-solve time by layer.
const coldProbeCount = 5

// coldProbes cold-solves the workload's instance coldProbeCount times, each
// in a cra.Session and in the stage loop, back to back in alternating
// order, and reports the medians of the session's own share, of the engine
// and flow shares, and of the stage loop's work counts.
func (r *run) coldProbes(ctx context.Context, tr *tracer, report func(name, unit string) func(float64, int)) error {
	in := r.in.tenants[0]
	sess := &sessionBackend{}
	if err := sess.create(ctx, "probe", in.req); err != nil {
		return fmt.Errorf("probe session: %w", err)
	}
	loop := newStageLoop(in.base, in.req.Config.CandidateCap)
	var self, candidates, fill, transport, cells, densified, fallbacks []float64
	gap := 0.0 // largest relative objective gap between the loop and the session
	for j := range coldProbeCount {
		var out outcome
		var a *core.Assignment
		var c stageCounts
		var err, lerr error
		solveSession := func() {
			t0 := time.Now()
			out, err = sess.do(ctx, op{kind: opSolve})
			tr.add("cra.solve", j, t0, time.Now())
		}
		solveLoop := func() {
			a, c, lerr = loop.solve(ctx, func(name string, t0, t1 time.Time) { tr.add(name, j, t0, t1) })
		}
		if j%2 == 0 {
			solveSession()
			solveLoop()
		} else {
			solveLoop()
			solveSession()
		}
		r.t.attempted += 2
		if err != nil || lerr != nil {
			r.t.fail("cold probe: session %v, stage loop %v", err, lerr)
			continue
		}
		if verr := in.base.ValidateAssignment(a); verr != nil {
			r.t.fail("stage loop returned an invalid assignment: %v", verr)
		}
		want := in.base.AssignmentScore(&core.Assignment{Groups: out.res.Groups})
		gap = max(gap, math.Abs(in.base.AssignmentScore(a)-want)/want)
		f := tr.ms("engine.fill", j) + tr.ms("engine.densify", j)
		t := tr.ms("flow.transport", j) - tr.ms("engine.densify", j)
		self = append(self, tr.ms("cra.solve", j)-tr.ms("topics.candidates", j)-f-t)
		candidates = append(candidates, tr.ms("topics.candidates", j))
		fill = append(fill, f)
		transport = append(transport, t)
		cells = append(cells, float64(c.cells))
		densified = append(densified, float64(c.densified))
		fallbacks = append(fallbacks, float64(c.fallbacks))
	}
	if len(self) == 0 {
		return fmt.Errorf("no cold probe succeeded")
	}
	r.note("stage loop objective within %.3g of the session's (relative, worst of %d probes)", gap, len(self))
	report("cra.solve_self_ms", "ms")(median(self), len(self))
	report("topics.candidates_ms", "ms")(median(candidates), len(candidates))
	report("engine.fill_ms", "ms")(median(fill), len(fill))
	report("flow.transport_ms", "ms")(median(transport), len(transport))
	report("engine.fill_cells", "count")(median(cells), len(cells))
	report("flow.densified_rows", "count")(median(densified), len(densified))
	report("flow.stage_fallbacks", "count")(median(fallbacks), len(fallbacks))
	return nil
}

// traceCreate times one set-up round's tenant creation at every in-process
// depth, the durable snapshot it starts from, and the wire round trip of
// the upload. The creates and the snapshot run in rotated order.
func (r *run) traceCreate(ctx context.Context, tr *tracer, round int) error {
	req := *r.in.tenants[0].req
	req.ID = "bench"
	t0 := time.Now()
	raw, err := json.Marshal(&req)
	t1 := time.Now()
	var back wire.CreateRequest
	if err == nil {
		err = json.Unmarshal(raw, &back)
	}
	tr.add("create.encode", round, t0, t1)
	tr.add("create.decode", round, t1, time.Now())
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}

	steps := []string{depthMem, depthSolver, depthSession, "durable"}
	for k := range steps {
		if _, step := rotated(steps, round, k); step == "durable" {
			err = r.traceSnapshot(tr, round)
		} else {
			err = r.traceCreateAt(ctx, tr, step, round)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// traceCreateAt creates and drops the tenant at one in-process depth.
func (r *run) traceCreateAt(ctx context.Context, tr *tracer, depth string, round int) error {
	b, closeFn, err := r.newBackend(depth)
	if err != nil {
		return err
	}
	defer closeFn()
	t0 := time.Now()
	err = b.create(ctx, "bench", r.in.tenants[0].req)
	tr.add("create."+depth, round, t0, time.Now())
	r.t.attempted++
	if err == nil {
		err = b.drop(ctx)
	}
	if err != nil {
		return fmt.Errorf("%s create: %w", depth, err)
	}
	return nil
}

// traceSnapshot writes the upload as a fresh durable session's snapshot,
// as a durable Solver does when it is created.
func (r *run) traceSnapshot(tr *tracer, round int) error {
	t0 := time.Now()
	st, err := durable.Create(r.dataDir("durable"), &durable.State{Instance: r.in.tenants[0].req.Instance}, 5*time.Millisecond)
	tr.add("create.durable", round, t0, time.Now())
	if err != nil {
		return err
	}
	return st.Close()
}

// newBackend opens an in-process depth with its own data directory.
func (r *run) newBackend(depth string) (backend, func(), error) {
	switch depth {
	case depthMem:
		c, err := client.Open("mem://" + r.dataDir("mem"))
		if err != nil {
			return nil, nil, err
		}
		return &clientBackend{c: c}, func() { _ = c.Close() }, nil
	case depthSolver:
		return &solverBackend{dir: r.dataDir("wgrap")}, func() {}, nil
	default:
		return &sessionBackend{}, func() {}, nil
	}
}

// traceOps is the op sequence the traced run replays on tenant t: its
// closed-loop pass (repeated for single-op passes), or the open loop's two
// schedules merged by due time.
func (r *run) traceOps(t *tenantInputs) []op {
	in := r.in
	if in.reader == nil {
		if in.fresh {
			return t.pass
		}
		var s []op
		for u := range 10000 {
			o := t.pass[0]
			o.unit = u
			s = append(s, o)
		}
		return s
	}
	s := append(append([]op(nil), in.writer...), in.reader...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].due < s[j].due })
	return s
}

// probeCodec encodes and decodes one op's request and response payloads
// the way the client and the server do, returning the bytes on the wire.
func probeCodec(o op, out outcome) (int, error) {
	var req, resp, reqBack, respBack any
	switch o.kind {
	case opEdit:
		req, reqBack = &wire.EditRequest{Edits: o.edits}, &wire.EditRequest{}
		resp, respBack = &wire.EditResponse{Accepted: len(o.edits)}, &wire.EditResponse{}
	case opView:
		resp, respBack = out.view, &wire.View{}
	case opResolveAsync:
		resp, respBack = &wire.TicketStatus{Done: true, Version: out.version, Result: out.res}, &wire.TicketStatus{}
	default:
		resp, respBack = out.res, &wire.Result{}
	}
	n := 0
	for _, p := range [][2]any{{req, reqBack}, {resp, respBack}} {
		if p[0] == nil {
			continue
		}
		raw, err := json.Marshal(p[0])
		if err != nil {
			return n, err
		}
		if err := json.Unmarshal(raw, p[1]); err != nil {
			return n, err
		}
		n += len(raw)
	}
	return n, nil
}

// writeSpans writes the run's spans as JSON for offline inspection.
func (r *run) writeSpans(tr *tracer) error {
	path := filepath.Join(r.cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.json", r.w.name, r.cfg.seed))
	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	r.note("%d spans written to %s", len(tr.spans), path)
	return nil
}
