package track

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	wgrap "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/wire"
)

// GenConfig parameterizes scenario generation. The zero value selects the
// documented defaults, so Generate(name, in, GenConfig{Seed: 7}) is a
// complete call.
type GenConfig struct {
	// Seed drives every random choice; the same (scenario, instance, config)
	// triple always yields the identical op stream.
	Seed int64
	// Edits is the approximate number of edit ops to emit (default 320).
	Edits int
	// EditsPerResolve is the mean number of edits coalesced between resolve
	// points — the workload's write rate relative to its solve rate
	// (default 8).
	EditsPerResolve int
	// AsyncFrac is the fraction of resolve points issued as resolve_async
	// instead of blocking resolves (default 0.25).
	AsyncFrac float64
	// ViewsPerResolve is the number of view reads after each resolve point
	// (default 3).
	ViewsPerResolve int
	// Skew is the Zipf exponent of hot-paper/hot-reviewer targeting: edits
	// concentrate on a shuffled popularity ranking with weight
	// 1/(rank+1)^Skew, the way real CoI reports and withdrawals pile onto a
	// few contested submissions (default 1.1; 0 disables targeting).
	Skew float64
	// Sleep, when positive, paces the stream: a sleep op of this length is
	// emitted after each resolve point (burst pacing; the replayer can scale
	// or skip it).
	Sleep time.Duration
	// Config is the tenant config of the shadow session the generator drives
	// alongside the stream (default the deterministic {Method: sdga, Seed: 1});
	// use the config the track will replay under.
	Config wire.TenantConfig
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Edits <= 0 {
		c.Edits = 320
	}
	if c.EditsPerResolve <= 0 {
		c.EditsPerResolve = 8
	}
	if c.AsyncFrac == 0 {
		c.AsyncFrac = 0.25
	}
	if c.AsyncFrac < 0 {
		c.AsyncFrac = 0
	}
	if c.ViewsPerResolve <= 0 {
		c.ViewsPerResolve = 3
	}
	if c.Skew == 0 {
		c.Skew = 1.1
	}
	if c.Config.Method == "" {
		c.Config = wire.TenantConfig{Method: string(wgrap.MethodSDGA), Seed: 1}
	}
	return c
}

// ScenarioInfo describes one catalog entry.
type ScenarioInfo struct {
	Name        string
	Description string
}

// scenario couples a catalog entry with its generator body.
type scenario struct {
	info ScenarioInfo
	run  func(g *gen)
}

// catalog is the ordered scenario registry. Order matters only for listings.
var catalog = []scenario{
	{ScenarioInfo{"coi-storm",
		"conflict-of-interest reports trickle in, then burst onto a few hot papers near the deadline, then the over-conflicted papers withdraw"},
		(*gen).coiStorm},
	{ScenarioInfo{"withdrawal-wave",
		"waves of withdrawals hit hot papers with partial restores between waves"},
		(*gen).withdrawalWave},
	{ScenarioInfo{"reviewer-churn",
		"the pool churns: new reviewers sign up, immediately report conflicts, and the workload is rebalanced as capacity grows"},
		(*gen).reviewerChurn},
	{ScenarioInfo{"late-signups",
		"a quiet editing period, then a rush of reviewer sign-ups with workload rebalancing as the pool grows"},
		(*gen).lateSignups},
	{ScenarioInfo{"rebalance",
		"withdrawal blocks tighten the workload down, restores force it back up — the capacity-feasibility edge exercised both ways"},
		(*gen).rebalance},
	{ScenarioInfo{"deadline-rush",
		"the composite serving narrative: calm edits, a CoI storm, a withdrawal wave, late sign-ups, and a final rebalance"},
		(*gen).deadlineRush},
}

// Scenarios lists the generator catalog.
func Scenarios() []ScenarioInfo {
	out := make([]ScenarioInfo, len(catalog))
	for i, s := range catalog {
		out[i] = s.info
	}
	return out
}

// Generate derives the named scenario's op stream from the instance. The
// generator drives a live in-memory shadow session with the candidate stream
// as it goes: per-edit validity comes from simulating the session's edit
// mirror, and solve feasibility — a global property skewed conflict pile-ups
// can break without tripping any single-edit check — comes from actually
// resolving the shadow at every resolve point, emitting workload bumps until
// the flow is feasible again. The resulting stream is therefore accepted and
// solvable by construction; the replayer's rejected counter exists for
// robustness, not by design here. Every stream starts with a cold solve and
// ends with a blocking resolve, so the final view reflects every edit.
func Generate(name string, in *wire.Instance, cfg GenConfig) (ops []Op, err error) {
	var run func(g *gen)
	for _, s := range catalog {
		if s.info.Name == name {
			run = s.run
			break
		}
	}
	if run == nil {
		return nil, fmt.Errorf("track: unknown scenario %q (have %s)", name, scenarioNames())
	}
	d := dimsOf(in)
	if d.papers == 0 || d.reviewers == 0 {
		return nil, fmt.Errorf("track: scenario %s needs a non-empty instance", name)
	}
	cfg = cfg.withDefaults()

	c, err := client.Open("mem://")
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	const shadowID = "track-gen-shadow"
	if _, err := c.CreateTenant(ctx, &wire.CreateRequest{ID: shadowID, Instance: in, Config: cfg.Config}); err != nil {
		return nil, fmt.Errorf("track: shadow session: %w", err)
	}
	defer c.DeleteTenant(ctx, shadowID)

	g := &gen{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		d:         d,
		ctx:       ctx,
		c:         c,
		id:        shadowID,
		withdrawn: make([]bool, d.papers),
		conflictN: make([]int, d.papers),
		conflicts: make(map[[2]int]bool),
		activeN:   d.papers,
	}
	for _, cf := range in.Conflicts {
		if !g.conflicts[[2]int{cf[0], cf[1]}] {
			g.conflicts[[2]int{cf[0], cf[1]}] = true
			g.conflictN[cf[1]]++
		}
	}
	g.paperRank = g.rng.Perm(d.papers)
	g.reviewerRank = g.rng.Perm(d.reviewers)

	// Scenario bodies run arbitrary loops; a shadow-session failure aborts
	// them via panic so no body has to thread an error through its control
	// flow.
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(genAbort)
			if !ok {
				panic(r)
			}
			ops, err = nil, a.err
		}
	}()

	g.solvePoint()
	run(g)
	g.resolve(false) // drain everything so the final view is the track's verdict
	g.emit(Op{Kind: OpView})
	return g.ops, nil
}

// genAbort carries a shadow-session error out of a scenario body.
type genAbort struct{ err error }

func (g *gen) fail(err error) { panic(genAbort{err}) }

func scenarioNames() string {
	var names []string
	for _, s := range catalog {
		names = append(names, s.info.Name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// gen is the scenario generator state: the op stream under construction, a
// simulation of the session's edit-validation mirror (withdrawn flags,
// per-paper conflict counts, pool size, workload) used to pick valid edits
// cheaply, and the live shadow session that confirms each edit and every
// resolve point for real.
type gen struct {
	cfg GenConfig
	rng *rand.Rand
	d   dims
	ops []Op

	ctx context.Context
	c   client.Client
	id  string

	withdrawn []bool
	conflictN []int
	conflicts map[[2]int]bool
	activeN   int
	added     int // reviewers added so far (pool size is d.reviewers+added)

	// paperRank / reviewerRank are the popularity shuffles hot-edit
	// targeting samples through: drawn once per track, so "hot" papers stay
	// hot for the whole narrative.
	paperRank    []int
	reviewerRank []int

	sinceResolve int // edits emitted since the last resolve point
}

func (g *gen) emit(op Op) { g.ops = append(g.ops, op) }

func (g *gen) phase(name string) { g.emit(Op{Kind: OpPhase, Phase: name}) }

func (g *gen) pool() int { return g.d.reviewers + g.added }

// apply runs one edit on the shadow session. A sentinel rejection returns
// false (the candidate edit is dropped, never emitted); any other error
// aborts generation.
func (g *gen) apply(e wire.Edit) bool {
	if _, err := g.c.Edit(g.ctx, g.id, e); err != nil {
		if rejected(err) {
			return false
		}
		g.fail(fmt.Errorf("track: shadow %s edit: %w", e.Op, err))
	}
	return true
}

// ensureSolvable retries the shadow solve, raising δr through emitted
// set_workload edits until the flow is feasible again. Per-edit validation
// is local (pool size, per-paper conflict counts), but feasibility is global:
// skewed conflict pile-ups can violate Hall's condition without tripping any
// single-edit check. δr = activeN always suffices (every active paper keeps
// ≥ δp eligible reviewers), so the escalation terminates well before the cap.
func (g *gen) ensureSolvable(solve func() error) {
	for tries := 0; ; tries++ {
		err := solve()
		if err == nil {
			return
		}
		if !errors.Is(err, wgrap.ErrInfeasible) || tries >= 32 {
			g.fail(fmt.Errorf("track: shadow solve: %w", err))
		}
		if !g.setWorkload(g.d.workload + 1 + g.d.workload/10) {
			g.fail(fmt.Errorf("track: cannot repair infeasible state at δr=%d: %w", g.d.workload, err))
		}
	}
}

// solvePoint emits the stream's cold solve, repaired to feasibility first.
func (g *gen) solvePoint() {
	g.ensureSolvable(func() error { _, err := g.c.Solve(g.ctx, g.id); return err })
	g.emit(Op{Kind: OpSolve})
}

// zipf samples an index skewed toward the front of the rank permutation:
// idx = ⌊n·u^s⌋ for uniform u, which for s>1 piles mass onto the low ranks
// the way Zipf targeting should. Cheap, rejection-free and deterministic.
func (g *gen) zipf(rank []int) int {
	n := len(rank)
	if g.cfg.Skew <= 0 {
		return rank[g.rng.Intn(n)]
	}
	idx := int(math.Floor(float64(n) * math.Pow(g.rng.Float64(), 1+g.cfg.Skew)))
	if idx >= n {
		idx = n - 1
	}
	return rank[idx]
}

func (g *gen) hotPaper() int    { return g.zipf(g.paperRank) }
func (g *gen) hotReviewer() int { return g.zipf(g.reviewerRank) }

// addConflict emits a valid conflict edit (dedup'd, never saturating an
// active paper), reporting whether one was emitted.
func (g *gen) addConflict(r, p int) bool {
	if r < 0 || r >= g.pool() || p < 0 || p >= g.d.papers {
		return false
	}
	if g.conflicts[[2]int{r, p}] {
		return false
	}
	// Leave δp+1 eligible reviewers rather than the session's δp minimum:
	// the track stays acceptable even after unrelated withdraw/restore
	// interleavings.
	if !g.withdrawn[p] && g.pool()-g.conflictN[p]-1 <= g.d.groupSize {
		return false
	}
	if !g.apply(wire.Edit{Op: wire.OpAddConflict, R: r, P: p}) {
		return false
	}
	g.conflicts[[2]int{r, p}] = true
	g.conflictN[p]++
	g.emit(Op{Kind: OpAddConflict, R: r, P: p})
	g.sinceResolve++
	return true
}

func (g *gen) withdraw(p int) bool {
	if g.withdrawn[p] {
		return false
	}
	if !g.apply(wire.Edit{Op: wire.OpWithdraw, P: p}) {
		return false
	}
	g.withdrawn[p] = true
	g.activeN--
	g.emit(Op{Kind: OpWithdraw, P: p})
	g.sinceResolve++
	return true
}

func (g *gen) restore(p int) bool {
	if !g.withdrawn[p] {
		return false
	}
	if g.pool()-g.conflictN[p] < g.d.groupSize {
		return false // saturated while withdrawn
	}
	if !core.HasCapacity(g.pool(), g.d.workload, (g.activeN+1)*g.d.groupSize) {
		// Not enough capacity at the current workload: rebalance up first,
		// like a chair would.
		g.setWorkload(g.minWorkload(g.activeN + 1))
	}
	if !g.apply(wire.Edit{Op: wire.OpRestore, P: p}) {
		return false
	}
	g.withdrawn[p] = false
	g.activeN++
	g.emit(Op{Kind: OpRestore, P: p})
	g.sinceResolve++
	return true
}

// minWorkload is the smallest feasible δr for active papers over the current
// pool.
func (g *gen) minWorkload(active int) int {
	w := (active*g.d.groupSize + g.pool() - 1) / g.pool()
	if w < 1 {
		w = 1
	}
	return w
}

func (g *gen) setWorkload(w int) bool {
	if w <= 0 || w == g.d.workload {
		return false
	}
	if g.pool()*w < g.activeN*g.d.groupSize {
		return false
	}
	if !g.apply(wire.Edit{Op: wire.OpSetWorkload, Workload: w}) {
		return false
	}
	g.d.workload = w
	g.emit(Op{Kind: OpSetWorkload, Workload: w})
	g.sinceResolve++
	return true
}

// addReviewer emits a pool entrant whose expertise peaks on a few topics —
// the shape corpus reviewers have — and returns the entrant's pool index
// (-1 if the session refused the sign-up).
func (g *gen) addReviewer() int {
	v := make([]float64, g.d.topics)
	for i := range v {
		v[i] = 0.02 + 0.05*g.rng.Float64()
	}
	for k := 0; k < 3; k++ {
		v[g.rng.Intn(g.d.topics)] += 0.4 + 0.6*g.rng.Float64()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	for i := range v {
		v[i] /= sum
	}
	rev := &wire.Reviewer{
		ID:     fmt.Sprintf("late-r%03d", g.added),
		Name:   fmt.Sprintf("Late Signup %d", g.added),
		Topics: v,
	}
	if !g.apply(wire.Edit{Op: wire.OpAddReviewer, Reviewer: rev}) {
		return -1
	}
	idx := g.pool()
	g.emit(Op{Kind: OpAddReviewer, Reviewer: rev})
	g.added++
	g.sinceResolve++
	return idx
}

// resolve emits a resolve point: the re-solve itself (async per AsyncFrac
// unless forced blocking), the configured view reads, and the pacing sleep.
// The shadow session resolves first — emitting repair set_workload edits if
// the accumulated conflicts broke feasibility — so the emitted resolve is
// guaranteed to succeed on replay.
func (g *gen) resolve(allowAsync bool) {
	g.ensureSolvable(func() error { _, err := g.c.Resolve(g.ctx, g.id); return err })
	kind := OpResolve
	if allowAsync && g.rng.Float64() < g.cfg.AsyncFrac {
		kind = OpResolveAsync
	}
	g.emit(Op{Kind: kind})
	for v := 0; v < g.cfg.ViewsPerResolve; v++ {
		g.emit(Op{Kind: OpView})
	}
	if g.cfg.Sleep > 0 {
		g.emit(Op{Kind: OpSleep, SleepNS: g.cfg.Sleep.Nanoseconds()})
	}
	g.sinceResolve = 0
}

// maybeResolve closes the current burst once it reaches the configured mean
// size (with ±50% jitter so resolve points don't fall on a metronome).
func (g *gen) maybeResolve() {
	target := g.cfg.EditsPerResolve/2 + g.rng.Intn(g.cfg.EditsPerResolve+1)
	if target < 1 {
		target = 1
	}
	if g.sinceResolve >= target {
		g.resolve(true)
	}
}

// --- the scenario bodies ---------------------------------------------------

// coiStorm: scattered early conflicts, then bursts piling onto hot papers,
// then the most contested papers withdraw.
func (g *gen) coiStorm() { g.coiStormBudget(g.cfg.Edits) }

func (g *gen) coiStormBudget(budget int) {
	calm := budget / 4
	storm := budget * 6 / 10
	g.phase("coi-calm")
	for e := 0; e < calm; e++ {
		g.addConflict(g.rng.Intn(g.pool()), g.rng.Intn(g.d.papers))
		g.maybeResolve()
	}
	g.resolve(true)
	g.phase("coi-storm")
	// The guard bounds wasted draws: once most hot papers saturate, stop
	// rather than spin hunting for the few that still accept conflicts.
	for e, guard := 0, storm*40; e < storm && guard > 0; guard-- {
		// A burst: one hot paper draws several conflict reports at once.
		p := g.hotPaper()
		burst := 1 + g.rng.Intn(2*g.cfg.EditsPerResolve)
		for b := 0; b < burst && e < storm; b++ {
			if g.addConflict(g.hotReviewer(), p) {
				e++
			} else {
				p = g.hotPaper() // saturating or duplicate: move on
			}
			g.maybeResolve()
		}
	}
	g.resolve(true)
	g.phase("coi-aftermath")
	// The most conflicted papers give up and withdraw.
	type cp struct{ p, n int }
	var worst []cp
	for p, n := range g.conflictN {
		if n > 0 && !g.withdrawn[p] {
			worst = append(worst, cp{p, n})
		}
	}
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].n != worst[j].n {
			return worst[i].n > worst[j].n
		}
		return worst[i].p < worst[j].p
	})
	quit := budget - calm - storm
	if quit > len(worst) {
		quit = len(worst)
	}
	for i := 0; i < quit; i++ {
		g.withdraw(worst[i].p)
		g.maybeResolve()
	}
}

// withdrawalWave: waves of withdrawals with partial restores between them.
func (g *gen) withdrawalWave() { g.withdrawalWaveBudget(g.cfg.Edits) }

func (g *gen) withdrawalWaveBudget(budget int) {
	waves := 4
	perWave := budget / waves
	if perWave < 2 {
		perWave, waves = 2, budget/2
	}
	for w := 0; w < waves; w++ {
		g.phase(fmt.Sprintf("wave-%d", w+1))
		var gone []int
		pull := perWave * 2 / 3
		for e := 0; e < pull; e++ {
			p := g.hotPaper()
			for tries := 0; g.withdrawn[p] && tries < 8; tries++ {
				p = g.rng.Intn(g.d.papers)
			}
			if g.withdraw(p) {
				gone = append(gone, p)
			}
			g.maybeResolve()
		}
		g.resolve(true)
		// Some authors appeal and come back.
		for e := 0; e < perWave-pull && len(gone) > 0; e++ {
			i := g.rng.Intn(len(gone))
			g.restore(gone[i])
			gone = append(gone[:i], gone[i+1:]...)
			g.maybeResolve()
		}
		g.resolve(true)
	}
}

// reviewerChurn: sign-ups that immediately report their conflicts, light
// withdraw/restore noise, and periodic rebalancing as the pool grows.
func (g *gen) reviewerChurn() { g.reviewerChurnBudget(g.cfg.Edits) }

func (g *gen) reviewerChurnBudget(budget int) {
	g.phase("churn")
	var floating []int
	for e, guard := 0, budget*40; e < budget && guard > 0; guard-- {
		switch roll := g.rng.Float64(); {
		case roll < 0.30:
			if r := g.addReviewer(); r >= 0 {
				e++
				// A new PC member knows people: conflicts arrive with them.
				for c := 0; c < 1+g.rng.Intn(3) && e < budget; c++ {
					if g.addConflict(r, g.hotPaper()) {
						e++
					}
				}
			}
		case roll < 0.45:
			p := g.rng.Intn(g.d.papers)
			if g.withdraw(p) {
				floating = append(floating, p)
				e++
			}
		case roll < 0.60 && len(floating) > 0:
			i := g.rng.Intn(len(floating))
			if g.restore(floating[i]) {
				e++
			}
			floating = append(floating[:i], floating[i+1:]...)
		case roll < 0.70:
			// Rebalance toward the minimum the grown pool allows. The slot
			// counts even when the workload is already minimal, so the loop
			// terminates regardless of state.
			g.setWorkload(g.minWorkload(g.activeN))
			e++
		default:
			g.addConflict(g.hotReviewer(), g.hotPaper())
			e++
		}
		g.maybeResolve()
	}
}

// lateSignups: quiet edits, then a sign-up rush with rebalancing.
func (g *gen) lateSignups() { g.lateSignupsBudget(g.cfg.Edits) }

func (g *gen) lateSignupsBudget(budget int) {
	quiet := budget / 4
	g.phase("pre-deadline-quiet")
	for e := 0; e < quiet; e++ {
		g.addConflict(g.rng.Intn(g.pool()), g.rng.Intn(g.d.papers))
		g.maybeResolve()
	}
	g.resolve(true)
	g.phase("signup-rush")
	for e := quiet; e < budget; {
		burst := 2 + g.rng.Intn(4)
		for b := 0; b < burst && e < budget; b++ {
			g.addReviewer()
			e++
		}
		// The chair spreads the load over the larger pool.
		if g.setWorkload(g.minWorkload(g.activeN)) {
			e++
		}
		g.resolve(true)
	}
}

// rebalance: withdrawal blocks tighten δr down, restores push it back up.
func (g *gen) rebalance() { g.rebalanceBudget(g.cfg.Edits) }

func (g *gen) rebalanceBudget(budget int) {
	cycles := 3
	per := budget / cycles
	if per < 4 {
		per, cycles = 4, budget/4
	}
	for c := 0; c < cycles; c++ {
		g.phase(fmt.Sprintf("tighten-%d", c+1))
		var gone []int
		for e := 0; e < per/2; e++ {
			p := g.hotPaper()
			for tries := 0; g.withdrawn[p] && tries < 8; tries++ {
				p = g.rng.Intn(g.d.papers)
			}
			if g.withdraw(p) {
				gone = append(gone, p)
			}
			g.maybeResolve()
		}
		g.setWorkload(g.minWorkload(g.activeN))
		g.resolve(true)
		g.phase(fmt.Sprintf("relax-%d", c+1))
		for _, p := range gone {
			g.restore(p) // restore raises δr itself when capacity runs short
			g.maybeResolve()
		}
		g.resolve(true)
	}
}

// deadlineRush: the composite narrative used by the canonical CI track.
func (g *gen) deadlineRush() {
	b := g.cfg.Edits
	g.coiStormBudget(b * 35 / 100)
	g.resolve(false)
	g.withdrawalWaveBudget(b * 25 / 100)
	g.lateSignupsBudget(b * 20 / 100)
	g.rebalanceBudget(b * 20 / 100)
}
