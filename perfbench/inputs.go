package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	wgrap "repro"
	"repro/internal/core"
	"repro/internal/track"
	"repro/internal/wire"
)

// opKind is one request kind of a workload's op stream.
type opKind uint8

const (
	opSolve opKind = iota
	opResolve
	opResolveAsync
	opView
	opEdit
)

// Units of ops that are not measured. A workload's measured operation (its
// "unit") is one cold solve, one edit burst with its resolve and views, or
// one view read, depending on the workload.
const (
	// unitBackground marks open-loop writer traffic: load on the daemon
	// while the reader is measured.
	unitBackground = -2
)

// op is one request of a workload's op stream.
type op struct {
	kind  opKind
	edits []wire.Edit   // opEdit: one batch, applied in order
	due   time.Duration // open loop: send time after the loop starts
	unit  int           // measured unit the op belongs to, or unitBackground
}

// tenantInputs is one tenant's upload and the ops sent to it.
type tenantInputs struct {
	req  *wire.CreateRequest // the upload; ID is set per tenant
	base *core.Instance      // the uploaded instance, workload resolved
	open []op                // untimed ops that open every fresh tenant
	pass []op                // closed loop: the ops of one pass
}

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	// tenants[0] is the tenant set-up creates, the open loop drives and the
	// traced run replays. A closed loop replays pass i on tenants[i mod
	// len(tenants)] until the measurement window ends, on a fresh tenant per
	// pass when fresh is set.
	tenants []*tenantInputs
	fresh   bool
	// Open loop: two senders with seeded Poisson schedules.
	reader, writer []op
}

// scale sizes every workload. fullScale is what the benchmark runs; the
// tests run tinyScale.
type scale struct {
	densePapers, denseReviewers   int
	sparsePapers, sparseReviewers int
	topics                        int
	candidateCap                  int
	corpusScale                   float64 // Table 3 scale of the track corpora
	trackEdits                    int     // edits of each edit-stream track
	// editTracks is how many seeded conferences and tracks edit-stream
	// cycles through. The cost of a warm resolve depends on the conference
	// and the track: with one track per run, seed 2's median burst came out
	// 25-30% under the ten-seed median in two separate sweeps, and with
	// eight the ten-seed spread of the median burst was still 0.06-0.10,
	// most of it from the seeds. A run measures whole cycles, so its median
	// averages over every track.
	editTracks int
	viewRate   float64 // open-loop view reads per second
	writeRate  float64 // open-loop edit batches per second
	// minUnits keeps a closed loop measuring past its window until it has
	// this many units: a p75 has minTail samples beyond it from 40 on, and a
	// hundred keep the percentiles of a short window steady.
	minUnits    int
	setupRounds int
	// reference holds the average coverage each exact workload must reach
	// at seed 1; a differing value means a solver changed its answer.
	reference map[string]float64
}

var fullScale = scale{
	densePapers: 350, denseReviewers: 700,
	sparsePapers: 1000, sparseReviewers: 2000,
	topics: 40, candidateCap: 64,
	corpusScale: 0.5, trackEdits: 100, editTracks: 16,
	viewRate: 100, writeRate: 1,
	minUnits:    100,
	setupRounds: 21,
	reference: map[string]float64{
		"cold-dense":  0.9839757085714244,
		"cold-sparse": 0.9901470652592952,
		"edit-stream": 0.8933840020422973,
	},
}

// workload names one traffic mix and how to generate its inputs.
type workload struct {
	name   string
	warmup int // untimed units run before measuring
	build  func(seed int64, window time.Duration, sc scale) (*inputs, error)
}

// The four workloads. Each stresses different layers; BENCHMARK.json and
// README.md record why each exists.
var workloads = []workload{
	{"cold-dense", 2, denseInputs},
	{"cold-sparse", 2, sparseInputs},
	{"edit-stream", 10, editStreamInputs},
	{"view-heavy", 200, viewHeavyInputs},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// editsPerResolve is the mean edit batch of the generated tracks.
const editsPerResolve = 8

// sdgaConfig pins the construction-only method: every workload measures
// SDGA, never the budget-bound anytime refinement.
func sdgaConfig(candidateCap int) wire.TenantConfig {
	return wire.TenantConfig{Method: string(wgrap.MethodSDGA), Seed: 1, CandidateCap: candidateCap}
}

// newTenantInputs resolves the upload into the base instance.
func newTenantInputs(in *wire.Instance, cfg wire.TenantConfig) (*tenantInputs, error) {
	base, err := in.ToInstance()
	if err != nil {
		return nil, err
	}
	if base.Workload == 0 {
		base.Workload = base.MinWorkload()
	}
	return &tenantInputs{req: &wire.CreateRequest{Instance: in, Config: cfg}, base: base}, nil
}

// coldInputs is a closed loop of cold solves of one uploaded instance.
func coldInputs(in *wire.Instance, candidateCap int) (*inputs, error) {
	t, err := newTenantInputs(in, sdgaConfig(candidateCap))
	if err != nil {
		return nil, err
	}
	t.pass = []op{{kind: opSolve}}
	return &inputs{tenants: []*tenantInputs{t}}, nil
}

// denseInputs: uniform random topics and no candidate cap, so a cold solve
// fills every P×R profit cell of every stage and solves the dense transport.
func denseInputs(seed int64, _ time.Duration, sc scale) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	vec := func() []float64 {
		v := make(core.Vector, sc.topics)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v.Normalized()
	}
	in := &wire.Instance{GroupSize: 3}
	for range sc.densePapers {
		in.Papers = append(in.Papers, wire.Paper{Topics: vec()})
	}
	for range sc.denseReviewers {
		in.Reviewers = append(in.Reviewers, wire.Reviewer{Topics: vec()})
	}
	return coldInputs(in, 0)
}

// sparseInputs: Zipf-skewed topics (hot topics carry most expertise, so
// candidate lists collide on popular reviewers) under a candidate cap, with
// one unit of workload slack so the sparse transport, not the densify escape
// hatch, does the work.
func sparseInputs(seed int64, _ time.Duration, sc scale) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, sc.topics)
	total := 0.0
	for j := range weights {
		weights[j] = 1 / float64(j+1)
		total += weights[j]
	}
	zipfTopic := func() int {
		u := rng.Float64() * total
		for j, w := range weights {
			if u -= w; u < 0 {
				return j
			}
		}
		return sc.topics - 1
	}
	vec := func() []float64 {
		v := make(core.Vector, sc.topics)
		for j := 0; j < 4; j++ {
			v[zipfTopic()] += rng.Float64() / float64(j+1)
		}
		return v.Normalized()
	}
	in := &wire.Instance{GroupSize: 3}
	for range sc.sparsePapers {
		in.Papers = append(in.Papers, wire.Paper{Topics: vec()})
	}
	for range sc.sparseReviewers {
		in.Reviewers = append(in.Reviewers, wire.Reviewer{Topics: vec()})
	}
	in.Workload = (sc.sparsePapers*in.GroupSize+sc.sparseReviewers-1)/sc.sparseReviewers + 1
	return coldInputs(in, sc.candidateCap)
}

// corpusTrack materializes a seeded synthetic conference and generates a
// scenario track of about edits edits over it.
func corpusTrack(area string, year int, scenario string, seed int64, sc scale, edits int) (*wire.Instance, []track.Op, error) {
	t := &track.Track{
		Format: track.FormatVersion,
		Name:   scenario,
		Corpus: &track.CorpusRef{Area: area, Year: year, Scale: sc.corpusScale, Seed: seed, Authors: 400, GroupSize: 3},
	}
	in, err := t.Materialize()
	if err != nil {
		return nil, nil, err
	}
	ops, err := track.Generate(scenario, in, track.GenConfig{Seed: seed, Edits: edits, EditsPerResolve: editsPerResolve})
	if err != nil {
		return nil, nil, err
	}
	return in, ops, nil
}

// wireEdit converts a track edit op to its wire form.
func wireEdit(t track.Op) wire.Edit {
	e := wire.Edit{R: t.R, P: t.P, Workload: t.Workload, Reviewer: t.Reviewer}
	switch t.Kind {
	case track.OpAddConflict:
		e.Op = wire.OpAddConflict
	case track.OpWithdraw:
		e.Op = wire.OpWithdraw
	case track.OpRestore:
		e.Op = wire.OpRestore
	case track.OpAddReviewer:
		e.Op = wire.OpAddReviewer
	case track.OpSetWorkload:
		e.Op = wire.OpSetWorkload
	}
	return e
}

// editStreamInputs: the deadline-rush track over seeded DB 2008
// conferences, one per track, replayed closed-loop on a fresh durable tenant
// per pass. A unit is one burst: its edits, the resolve point that follows,
// and the views after it.
func editStreamInputs(seed int64, _ time.Duration, sc scale) (*inputs, error) {
	w := &inputs{fresh: true}
	for k := range sc.editTracks {
		sub := seed*int64(sc.editTracks) + int64(k)
		in, tops, err := corpusTrack("DB", 2008, "deadline-rush", sub, sc, sc.trackEdits)
		if err != nil {
			return nil, err
		}
		t, err := newTenantInputs(in, sdgaConfig(0))
		if err != nil {
			return nil, err
		}
		unit, inEdits := -1, false
		for _, to := range tops {
			var o op
			switch {
			case to.Kind == track.OpSolve:
				t.open = append(t.open, op{kind: opSolve})
				continue
			case to.Kind == track.OpResolve:
				o.kind = opResolve
			case to.Kind == track.OpResolveAsync:
				o.kind = opResolveAsync
			case to.Kind == track.OpView:
				o.kind = opView
			case track.IsEdit(to.Kind):
				o.kind, o.edits = opEdit, []wire.Edit{wireEdit(to)}
			default: // phase markers and sleeps carry no request
				continue
			}
			if unit < 0 || (o.kind == opEdit && !inEdits) {
				unit++
			}
			inEdits = o.kind == opEdit
			o.unit = unit
			t.pass = append(t.pass, o)
		}
		w.tenants = append(w.tenants, t)
	}
	return w, nil
}

// viewHeavyInputs: an open loop over the seeded DM 2009 conference. The
// reader sends view reads; the writer sends the coi-storm track's edits, one
// resolve point's batch per arrival, each followed by an async resolve whose
// ticket it polls. The generator checked that every resolve point is
// solvable, so each batch leaves the instance solvable. The track is
// generated long enough to give every arrival of the window a batch.
func viewHeavyInputs(seed int64, window time.Duration, sc scale) (*inputs, error) {
	writes := arrivals(rand.New(rand.NewSource(2*seed+1)), sc.writeRate, window)
	var in *wire.Instance
	var batches [][]wire.Edit
	for edits := (len(writes) + 2) * editsPerResolve; in == nil || len(batches) < len(writes); edits *= 2 {
		var tops []track.Op
		var err error
		in, tops, err = corpusTrack("DM", 2009, "coi-storm", seed, sc, edits)
		if err != nil {
			return nil, err
		}
		batches = nil
		var batch []wire.Edit
		for _, to := range tops {
			switch {
			case track.IsEdit(to.Kind):
				batch = append(batch, wireEdit(to))
			case to.Kind == track.OpResolve || to.Kind == track.OpResolveAsync:
				if len(batch) > 0 {
					batches = append(batches, batch)
					batch = nil
				}
			}
		}
	}
	t, err := newTenantInputs(in, sdgaConfig(0))
	if err != nil {
		return nil, err
	}
	t.open = []op{{kind: opSolve}}
	w := &inputs{tenants: []*tenantInputs{t}}
	for i, due := range arrivals(rand.New(rand.NewSource(2*seed)), sc.viewRate, window) {
		w.reader = append(w.reader, op{kind: opView, due: due, unit: i})
	}
	for i, due := range writes {
		w.writer = append(w.writer,
			op{kind: opEdit, edits: batches[i], due: due, unit: unitBackground},
			op{kind: opResolveAsync, due: due, unit: unitBackground})
	}
	return w, nil
}

// arrivals returns the send times of a Poisson process of the given rate
// over the window.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(math.Round(t * 1e9))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}
