package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// Config is one member's static cluster configuration. The hash ring's
// virtual-node count and the replication requests' timeout are fixed, not
// configured: every member and client must hash alike.
type Config struct {
	// Self is this node's id; it must appear in Nodes.
	Self string
	// Nodes is the full static membership (id + advertised address).
	Nodes []wire.NodeInfo
	// ProbeInterval paces the peer health prober (default 250ms).
	ProbeInterval time.Duration
	// ReplicaPoll paces the replication sync loop: discovery of tenants to
	// follow and catch-up pulls (default 500ms).
	ReplicaPoll time.Duration
	// Logf receives replication/membership events (nil discards them).
	Logf func(format string, args ...any)
}

// ParsePeers parses a "-peers" flag value: comma-separated id=host:port
// pairs, e.g. "n1=127.0.0.1:7001,n2=127.0.0.1:7002,n3=127.0.0.1:7003".
func ParsePeers(s string) ([]wire.NodeInfo, error) {
	var nodes []wire.NodeInfo
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=host:port)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		nodes = append(nodes, wire.NodeInfo{ID: id, Addr: addr, Alive: true})
	}
	if len(nodes) == 0 {
		return nil, errors.New("cluster: empty peer list")
	}
	return nodes, nil
}

// Member is one node's view of the cluster: static membership with health
// probing, the epoch-stamped hash ring over the alive nodes, and the
// replication engine that keeps this node's replicas in sync with the
// tenants it follows.
type Member struct {
	cfg Config
	reg *tenant.Registry
	hc  *http.Client

	mu    sync.Mutex
	alive map[string]bool
	epoch uint64
	ring  *Ring

	repMu sync.Mutex
	reps  map[string]*replica // per-tenant replication state

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// replica is the per-tenant replication state: an ingest mutex serialising
// pushed and pulled records, and (on the owner side) the journal tail
// reader feeding pushes to the follower.
type replica struct {
	mu   sync.Mutex
	tail *durable.TailReader // owner role: position of the last shipped record
}

// NewMember validates cfg and builds the member. Start launches the prober
// and the replication loop; until then the member answers ownership from
// the all-alive ring. A ring of one has no successor to ship journals to,
// so only a membership of more than one node requires a durable registry.
func NewMember(reg *tenant.Registry, cfg Config) (*Member, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: missing self node id")
	}
	if len(cfg.Nodes) > 1 && !reg.Durable() {
		return nil, errors.New("cluster: a membership of more than one node requires a durable registry (journal replication ships the data directory)")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.ReplicaPoll <= 0 {
		cfg.ReplicaPoll = 500 * time.Millisecond
	}
	found := false
	for _, n := range cfg.Nodes {
		if n.ID == cfg.Self {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self id %q not in peer list", cfg.Self)
	}
	sort.Slice(cfg.Nodes, func(i, j int) bool { return cfg.Nodes[i].ID < cfg.Nodes[j].ID })
	m := &Member{
		cfg:   cfg,
		reg:   reg,
		hc:    &http.Client{},
		alive: make(map[string]bool),
		epoch: 1,
		reps:  make(map[string]*replica),
		stop:  make(chan struct{}),
	}
	for _, n := range cfg.Nodes {
		m.alive[n.ID] = true
	}
	m.ring = m.buildRingLocked()
	return m, nil
}

func (m *Member) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// buildRingLocked rebuilds the ring over the alive nodes. Caller holds m.mu.
func (m *Member) buildRingLocked() *Ring {
	var ids []string
	for _, n := range m.cfg.Nodes {
		if m.alive[n.ID] {
			ids = append(ids, n.ID)
		}
	}
	return NewRing(ids)
}

// Start launches the health prober and the replication sync loop.
func (m *Member) Start() {
	m.wg.Add(2)
	go m.probeLoop()
	go m.syncLoop()
}

// Close stops the background loops. The registry stays open — the caller
// owns its lifecycle.
func (m *Member) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// Epoch returns the current shard-map epoch.
func (m *Member) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Map snapshots the shard map: static membership with this node's health
// view, and the epoch.
func (m *Member) Map() wire.ShardMap {
	m.mu.Lock()
	defer m.mu.Unlock()
	sm := wire.ShardMap{Epoch: m.epoch, Self: m.cfg.Self}
	for _, n := range m.cfg.Nodes {
		n.Alive = m.alive[n.ID]
		sm.Nodes = append(sm.Nodes, n)
	}
	return sm
}

// Owner returns the id and address of the node owning tenant id under the
// current ring.
func (m *Member) Owner(id string) (node, addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	node = m.ring.Owner(id)
	return node, m.addrLocked(node)
}

// ownerAndSuccessor resolves both ring roles for a tenant.
func (m *Member) ownerAndSuccessor(id string) (owner, successor string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring.OwnerAndSuccessor(id)
}

func (m *Member) addrLocked(node string) string {
	for _, n := range m.cfg.Nodes {
		if n.ID == node {
			return n.Addr
		}
	}
	return ""
}

// IsOwner reports whether this node owns tenant id.
func (m *Member) IsOwner(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring.Owner(id) == m.cfg.Self
}

// probeLoop marks peers dead and alive again by probing /v1/healthz; every
// transition bumps the epoch and rebuilds the ring, which is what moves a
// dead owner's tenants to their successors (failover) and only those
// tenants (consistent hashing).
func (m *Member) probeLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		for _, n := range m.cfg.Nodes {
			if n.ID == m.cfg.Self {
				continue
			}
			up := m.probe(n.Addr)
			m.mu.Lock()
			if m.alive[n.ID] != up {
				m.alive[n.ID] = up
				m.epoch++
				m.ring = m.buildRingLocked()
				epoch := m.epoch
				m.mu.Unlock()
				m.logf("cluster: node %s now alive=%v (epoch %d)", n.ID, up, epoch)
				continue
			}
			m.mu.Unlock()
		}
	}
}

func (m *Member) probe(addr string) bool {
	code, err := m.peer("GET", addr, "/v1/healthz", max(m.cfg.ProbeInterval, 100*time.Millisecond), nil, nil)
	return err == nil && code == http.StatusOK
}

// peer sends one request to the member at addr within timeout and returns
// the answer's status code. A non-nil body goes out as JSON; a 200 answer
// is decoded into out when out is non-nil. The response body is always
// drained and closed, so the connection goes back to the pool.
func (m *Member) peer(method, addr, path string, timeout time.Duration, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(raw)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// JournalChunk is the journal-shipping payload: the tenant's config, an
// optional snapshot (bootstrap, or the requested position fell behind the
// compaction horizon), and the records beyond the requested position. Seq
// is the highest sequence the chunk reaches.
type JournalChunk struct {
	Config   wire.TenantConfig `json:"config"`
	Snapshot *durable.State    `json:"snapshot,omitempty"`
	Records  []durable.Record  `json:"records,omitempty"`
	Seq      uint64            `json:"seq"`
}

// RecordChunk is the owner→follower push payload.
type RecordChunk struct {
	Records []durable.Record `json:"records"`
}

// Routes returns the /cluster/* HTTP surface of this member:
//
//	GET  /cluster/map                          epoch-stamped shard map
//	GET  /cluster/tenants/{id}/journal         journal chunk after ?after=N
//	                                           (?bootstrap=1 forces snapshot)
//	POST /cluster/tenants/{id}/records         owner push into a follower
func (m *Member) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/map", func(w http.ResponseWriter, r *http.Request) {
		clusterJSON(w, http.StatusOK, m.Map())
	})
	mux.HandleFunc("GET /cluster/tenants/{id}/journal", m.handleJournal)
	mux.HandleFunc("POST /cluster/tenants/{id}/records", m.handleRecords)
	mux.HandleFunc("POST /cluster/tenants/{id}/follow", m.handleFollow)
	return mux
}

// handleFollow bootstraps this node's replica of tenant id from its owner,
// synchronously — the owner requests it at tenant creation and when a record
// push finds no replica, so replication does not wait for this node's
// discovery poll. Idempotent: a node already holding the tenant answers ok.
func (m *Member) handleFollow(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if m.IsOwner(id) {
		m.WriteNotOwner(w, id)
		return
	}
	rep := m.replicaFor(id)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if m.reg.Has(id) {
		clusterJSON(w, http.StatusOK, map[string]string{"status": "following"})
		return
	}
	owner, _ := m.ownerAndSuccessor(id)
	m.mu.Lock()
	addr := m.addrLocked(owner)
	m.mu.Unlock()
	if owner == m.cfg.Self || addr == "" {
		clusterJSON(w, http.StatusConflict, &wire.Error{Code: wire.CodeInternal,
			Message: fmt.Sprintf("no reachable owner for tenant %q", id)})
		return
	}
	if err := m.bootstrap(id, addr); err != nil {
		clusterJSON(w, http.StatusInternalServerError, &wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		return
	}
	m.logf("cluster: following %s (owner %s, on request)", id, owner)
	clusterJSON(w, http.StatusOK, map[string]string{"status": "following"})
}

// handleJournal serves a tenant's journal chunk — the pull side of journal
// shipping. Only the owner serves it: a follower's journal is itself a
// replica and must not become a second source of truth.
func (m *Member) handleJournal(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !m.IsOwner(id) {
		m.WriteNotOwner(w, id)
		return
	}
	t, err := m.reg.Get(id)
	if err != nil {
		clusterJSON(w, http.StatusNotFound, &wire.Error{Code: wire.CodeNotFound, Message: err.Error()})
		return
	}
	var after uint64
	fmt.Sscanf(r.URL.Query().Get("after"), "%d", &after)
	bootstrap := r.URL.Query().Get("bootstrap") == "1"

	// Flush the group-commit window so the shipped prefix is also the
	// durable prefix, then read snapshot + records without touching the
	// live store.
	if err := t.Solver.Sync(); err != nil {
		clusterJSON(w, http.StatusInternalServerError, &wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		return
	}
	st, recs, err := durable.ReadSince(m.reg.Dir(id), after)
	if err != nil {
		clusterJSON(w, http.StatusInternalServerError, &wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		return
	}
	chunk := JournalChunk{Config: t.Config, Records: recs, Seq: st.Seq}
	if len(recs) > 0 {
		chunk.Seq = recs[len(recs)-1].Seq
	}
	if bootstrap || after < st.Seq {
		chunk.Snapshot = st
	}
	clusterJSON(w, http.StatusOK, chunk)
}

// handleRecords ingests an owner push into this node's replica of the
// tenant — the push side of journal shipping. Refused when this node owns
// the tenant (a stale previous owner must not write into the promoted one).
func (m *Member) handleRecords(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if m.IsOwner(id) {
		m.WriteNotOwner(w, id)
		return
	}
	var chunk RecordChunk
	if err := json.NewDecoder(r.Body).Decode(&chunk); err != nil {
		clusterJSON(w, http.StatusBadRequest, &wire.Error{Code: wire.CodeInvalidEdit, Message: err.Error()})
		return
	}
	if err := m.ingest(id, chunk.Records); err != nil {
		status := http.StatusConflict
		if errors.Is(err, tenant.ErrTenantNotFound) {
			status = http.StatusNotFound
		}
		clusterJSON(w, status, &wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		return
	}
	clusterJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// WriteNotOwner answers a request for a tenant this node does not own: the
// not_owner envelope names the owner and carries the epoch so the client
// can redirect (refreshing its map when its epoch is stale).
func (m *Member) WriteNotOwner(w http.ResponseWriter, id string) {
	m.mu.Lock()
	owner := m.ring.Owner(id)
	addr := m.addrLocked(owner)
	epoch := m.epoch
	m.mu.Unlock()
	clusterJSON(w, http.StatusMisdirectedRequest, &wire.Error{
		Code:      wire.CodeNotOwner,
		Message:   fmt.Sprintf("tenant %q is owned by node %s", id, owner),
		Owner:     owner,
		OwnerAddr: addr,
		Epoch:     epoch,
	})
}

func clusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
