// Package wire defines the JSON payloads shared by the wgrap-serve HTTP API
// and the repro/client package: instances, edits, results, views, progress
// snapshots, tenant configuration and the error envelope. Keeping both ends
// on one set of types is what makes the embedded↔remote duality exact — a
// value that round-trips through this package means the same thing to an
// in-process Solver and to a server across the network.
//
// The package depends only on internal/core so that every layer (the public
// wgrap package, the durability layer, the server, the client) can import it
// without cycles.
package wire

import (
	"fmt"

	"repro/internal/core"
)

// Paper is the wire form of core.Paper.
type Paper struct {
	ID     string    `json:"id,omitempty"`
	Title  string    `json:"title,omitempty"`
	Topics []float64 `json:"topics"`
}

// Reviewer is the wire form of core.Reviewer.
type Reviewer struct {
	ID     string    `json:"id,omitempty"`
	Name   string    `json:"name,omitempty"`
	HIndex int       `json:"h_index,omitempty"`
	Topics []float64 `json:"topics"`
}

// Instance is the wire form of a WGRAP instance. Score names one of the
// package's named scoring functions (core.ScoreByName); empty means the
// default weighted coverage.
type Instance struct {
	GroupSize int        `json:"group_size"`
	Workload  int        `json:"workload"`
	Score     string     `json:"score,omitempty"`
	Papers    []Paper    `json:"papers"`
	Reviewers []Reviewer `json:"reviewers"`
	// Conflicts lists [reviewer, paper] index pairs.
	Conflicts [][2]int `json:"conflicts,omitempty"`
}

// FromInstance converts a core instance to its wire form. It fails when the
// instance uses a custom (unnamed) scoring function, which cannot travel.
func FromInstance(in *core.Instance) (*Instance, error) {
	name, ok := core.ScoreName(in.Score)
	if !ok {
		return nil, fmt.Errorf("wire: instance uses an unnamed scoring function; only the named core scoring functions serialize")
	}
	w := &Instance{
		GroupSize: in.GroupSize,
		Workload:  in.Workload,
		Score:     name,
		Papers:    make([]Paper, 0, in.NumPapers()),
		Reviewers: make([]Reviewer, 0, in.NumReviewers()),
	}
	for _, p := range in.Papers {
		w.Papers = append(w.Papers, Paper{ID: p.ID, Title: p.Title, Topics: p.Topics})
	}
	for _, r := range in.Reviewers {
		w.Reviewers = append(w.Reviewers, Reviewer{ID: r.ID, Name: r.Name, HIndex: r.HIndex, Topics: r.Topics})
	}
	for _, c := range in.Conflicts() {
		w.Conflicts = append(w.Conflicts, [2]int{c.Reviewer, c.Paper})
	}
	return w, nil
}

// ToInstance converts the wire form back to a core instance.
func (w *Instance) ToInstance() (*core.Instance, error) {
	fn, ok := core.ScoreByName(w.Score)
	if !ok {
		return nil, fmt.Errorf("wire: unknown scoring function %q", w.Score)
	}
	papers := make([]core.Paper, 0, len(w.Papers))
	for _, p := range w.Papers {
		papers = append(papers, core.Paper{ID: p.ID, Title: p.Title, Topics: p.Topics})
	}
	reviewers := make([]core.Reviewer, 0, len(w.Reviewers))
	for _, r := range w.Reviewers {
		reviewers = append(reviewers, core.Reviewer{ID: r.ID, Name: r.Name, HIndex: r.HIndex, Topics: r.Topics})
	}
	in := core.NewInstance(papers, reviewers, w.GroupSize, w.Workload)
	in.Score = fn
	for _, c := range w.Conflicts {
		in.AddConflict(c[0], c[1])
	}
	return in, nil
}

// Edit operations, matching the Solver's incremental mutators.
const (
	OpAddConflict = "add-conflict"
	OpWithdraw    = "withdraw-paper"
	OpRestore     = "restore-paper"
	OpAddReviewer = "add-reviewer"
	OpSetWorkload = "set-workload"
)

// Edit is one incremental session edit.
type Edit struct {
	Op       string    `json:"op"`
	R        int       `json:"r,omitempty"`
	P        int       `json:"p,omitempty"`
	Workload int       `json:"workload,omitempty"`
	Reviewer *Reviewer `json:"reviewer,omitempty"`
}

// EditRequest is the body of POST /v1/tenants/{id}/edits: a batch applied
// in order.
type EditRequest struct {
	Edits []Edit `json:"edits"`
}

// EditResponse acknowledges an accepted edit batch. ReviewerIndices holds
// the assigned pool index of each add-reviewer edit, in batch order. Seq is
// the tenant's accepted-edit sequence after the batch; a cluster-aware
// client uses it to compute how much of a batch survived when the owner
// node dies between accepting edits and acknowledging them.
type EditResponse struct {
	Accepted        int    `json:"accepted"`
	Seq             uint64 `json:"seq,omitempty"`
	ReviewerIndices []int  `json:"reviewer_indices,omitempty"`
}

// Result is the wire form of a completed solve.
type Result struct {
	Score           float64 `json:"score"`
	AverageCoverage float64 `json:"average_coverage"`
	LowestCoverage  float64 `json:"lowest_coverage"`
	ElapsedNS       int64   `json:"elapsed_ns"`
	Method          string  `json:"method"`
	Groups          [][]int `json:"groups"`
}

// View is the wire form of a published solver view.
type View struct {
	Version    uint64  `json:"version"`
	Warm       bool    `json:"warm"`
	Edits      int     `json:"edits"`
	WhenUnixNS int64   `json:"when_unix_ns"`
	Result     *Result `json:"result,omitempty"`
}

// Progress is the wire form of one anytime progress snapshot. The best
// assignment is deliberately omitted — progress streams carry metrics, the
// view endpoint carries assignments.
type Progress struct {
	Phase     string  `json:"phase"`
	Round     int     `json:"round"`
	Score     float64 `json:"score"`
	ElapsedNS int64   `json:"elapsed_ns"`
}

// TenantConfig is the serializable solver configuration of one tenant; it
// is stored beside the tenant's durable state so a restarted server rebuilds
// the session with identical options. Zero values keep the library defaults.
type TenantConfig struct {
	Method           string `json:"method,omitempty"`
	Omega            int    `json:"omega,omitempty"`
	Seed             int64  `json:"seed,omitempty"`
	RefinementBudget int64  `json:"refinement_budget_ns,omitempty"`
	CandidateCap     int    `json:"candidate_cap,omitempty"`
	// SnapshotEvery is the durable compaction threshold (journal records
	// between snapshots); FsyncIntervalNS the group-commit window (negative:
	// fsync every record).
	SnapshotEvery   int   `json:"snapshot_every,omitempty"`
	FsyncIntervalNS int64 `json:"fsync_interval_ns,omitempty"`
}

// CreateRequest is the body of POST /v1/tenants.
type CreateRequest struct {
	ID       string       `json:"id"`
	Instance *Instance    `json:"instance"`
	Config   TenantConfig `json:"config"`
}

// Status describes one tenant.
type Status struct {
	ID        string `json:"id"`
	Papers    int    `json:"papers"`
	Reviewers int    `json:"reviewers"`
	Active    int    `json:"active"`
	// Seq counts the accepted edits of the session's lifetime; for durable
	// tenants it equals the journal sequence number, so a restarted server
	// reports the same Seq it had before the crash.
	Seq     uint64 `json:"seq"`
	Version uint64 `json:"version"`
	Durable bool   `json:"durable"`
}

// TenantList is the body of GET /v1/tenants.
type TenantList struct {
	Tenants []string `json:"tenants"`
}

// Ticket identifies an async resolve in flight.
type Ticket struct {
	Ticket string `json:"ticket"`
}

// TicketStatus reports the state of an async resolve. Exactly one of Result
// and Error is set once Done.
type TicketStatus struct {
	Done    bool    `json:"done"`
	Version uint64  `json:"version,omitempty"`
	Result  *Result `json:"result,omitempty"`
	Error   *Error  `json:"error,omitempty"`
}

// Error codes, mapped back onto the wgrap sentinel errors by the client so
// errors.Is keeps working across the network boundary. CodeNotOwner is the
// cluster routing code: the addressed node does not own the tenant's venue;
// the envelope carries the owner and the responder's shard-map epoch so the
// client can redirect (and refresh a stale map when the epoch moved).
const (
	CodeInvalidEdit       = "invalid-edit"
	CodeConflictSaturated = "conflict-saturated"
	CodeInfeasible        = "infeasible"
	CodeInvalidInstance   = "invalid-instance"
	CodeUnknownMethod     = "unknown-method"
	CodeNotFound          = "not-found"
	CodeTenantExists      = "tenant-exists"
	CodeNotOwner          = "not_owner"
	CodeInternal          = "internal"
)

// Error is the JSON error envelope of every non-2xx response. The Owner*
// and Epoch fields are set only on CodeNotOwner responses.
type Error struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Owner     string `json:"owner,omitempty"`
	OwnerAddr string `json:"owner_addr,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// NodeInfo describes one static cluster member in the shard map. Alive is
// the reporting node's current health view of it.
type NodeInfo struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
}

// ShardMap is the body of GET /cluster/map: the static membership with the
// reporting node's health view and an epoch that increments on every
// membership transition (a node observed dead or back alive). Venue
// ownership is a pure function of the map: consistent-hash the venue id over
// the alive nodes (cluster.NewRing) — every node and every client computes
// the same owner from the same map.
type ShardMap struct {
	Epoch uint64     `json:"epoch"`
	Self  string     `json:"self"`
	Nodes []NodeInfo `json:"nodes"`
}
