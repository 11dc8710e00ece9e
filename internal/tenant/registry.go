// Package tenant is the transport-agnostic tenant core of the serving
// stack: a registry of per-venue tenants, each a long-lived wgrap.Solver
// session, with the lifecycle (create, restore, adopt, delete), the
// edit/solve semantics (accepted-prefix edit batches) and the progress
// fan-out hub — everything a serving front needs except the transport.
// internal/serve mounts an HTTP API over this core; the client package's
// mem:// backend drives the same core in-process; internal/cluster
// replicates tenants between cores on different nodes. One core, three
// fronts, identical semantics.
//
// With a data directory the tenants are durable: each lives in its own
// subdirectory holding the solver's snapshot + edit journal (internal/durable
// via wgrap.WithJournalDir) and a config.json with the solver options, so a
// killed server reopens the directory and replays every tenant back to its
// exact pre-crash state.
package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	wgrap "repro"
	"repro/internal/durable"
	"repro/internal/wire"
)

// Registry-level errors, mapped to wire error codes by the transport layer.
var (
	ErrTenantExists   = errors.New("tenant: already exists")
	ErrTenantNotFound = errors.New("tenant: not found")
	ErrBadTenantID    = errors.New("tenant: invalid tenant id")
)

const configFile = "config.json"

// Tenant is one hosted solver session.
type Tenant struct {
	ID      string
	Solver  *wgrap.Solver
	Config  wire.TenantConfig
	Durable bool
	hub     *hub

	// encoded caches the wire encoding of the latest published view, keyed
	// by the *wgrap.View it encodes (every publication is a new pointer).
	encoded atomic.Pointer[EncodedView]

	ticketMu sync.Mutex
	tickets  map[string]*wgrap.Ticket
}

// Registry hosts the tenants of one server process.
type Registry struct {
	dataDir string // "" = purely in-memory tenants

	mu      sync.RWMutex
	tenants map[string]*Tenant

	ticketSeq atomic.Uint64
}

// NewRegistry builds a registry. A non-empty dataDir makes every tenant
// durable under dataDir/<tenant-id> and reopens the tenants already stored
// there (crash recovery): their sessions come back at the journaled edit
// sequence with the solver options saved at creation.
func NewRegistry(dataDir string) (*Registry, error) {
	r := &Registry{dataDir: dataDir, tenants: make(map[string]*Tenant)}
	if dataDir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() || !durable.Exists(filepath.Join(dataDir, e.Name())) {
			continue
		}
		if err := r.restoreTenant(e.Name()); err != nil {
			return nil, fmt.Errorf("tenant: restoring %q: %w", e.Name(), err)
		}
	}
	return r, nil
}

// Durable reports whether the registry persists its tenants.
func (r *Registry) Durable() bool { return r.dataDir != "" }

// Dir returns the durable directory of a tenant id ("" for an in-memory
// registry). The directory may or may not exist.
func (r *Registry) Dir(id string) string {
	if r.dataDir == "" {
		return ""
	}
	return filepath.Join(r.dataDir, id)
}

// validTenantID accepts DNS-label-like ids: they double as directory names.
func validTenantID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return id[0] != '.'
}

// configOptions converts the serializable tenant config to solver options.
func configOptions(cfg wire.TenantConfig) []wgrap.Option {
	var opts []wgrap.Option
	if cfg.Method != "" {
		opts = append(opts, wgrap.WithMethod(wgrap.Method(cfg.Method)))
	}
	if cfg.Omega > 0 {
		opts = append(opts, wgrap.WithOmega(cfg.Omega))
	}
	if cfg.Seed != 0 {
		opts = append(opts, wgrap.WithSeed(cfg.Seed))
	}
	if cfg.RefinementBudget > 0 {
		opts = append(opts, wgrap.WithRefinementBudget(time.Duration(cfg.RefinementBudget)))
	}
	if cfg.Shards > 0 {
		opts = append(opts, wgrap.WithShards(cfg.Shards))
	}
	if cfg.CandidateCap > 0 {
		opts = append(opts, wgrap.WithCandidateCap(cfg.CandidateCap))
	}
	if cfg.SnapshotEvery > 0 {
		opts = append(opts, wgrap.WithSnapshotEvery(cfg.SnapshotEvery))
	}
	if cfg.FsyncIntervalNS != 0 {
		// Negative means "fsync every record" (WithFsyncInterval(<=0)).
		d := time.Duration(cfg.FsyncIntervalNS)
		if d < 0 {
			d = 0
		}
		opts = append(opts, wgrap.WithFsyncInterval(d))
	}
	return opts
}

// Create builds and registers a new tenant from an uploaded instance. With a
// data directory the tenant is durable from its first edit.
func (r *Registry) Create(req *wire.CreateRequest) (*Tenant, error) {
	if !validTenantID(req.ID) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenantID, req.ID)
	}
	if req.Instance == nil {
		return nil, fmt.Errorf("%w: missing instance", wgrap.ErrInvalidInstance)
	}
	in, err := req.Instance.ToInstance()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", wgrap.ErrInvalidInstance, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[req.ID]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, req.ID)
	}
	opts := configOptions(req.Config)
	durableTenant := r.dataDir != ""
	if durableTenant {
		dir := filepath.Join(r.dataDir, req.ID)
		if durable.Exists(dir) {
			return nil, fmt.Errorf("%w: %q has durable state on disk", ErrTenantExists, req.ID)
		}
		opts = append(opts, wgrap.WithJournalDir(dir))
	}
	s, err := wgrap.NewSolver(in, opts...)
	if err != nil {
		return nil, err
	}
	t := newTenant(req.ID, s, req.Config, durableTenant)
	if durableTenant {
		if err := r.saveConfig(req.ID, req.Config); err != nil {
			s.Close()
			return nil, err
		}
	}
	r.tenants[req.ID] = t
	return t, nil
}

// restoreTenant reopens one durable tenant directory (crash recovery).
// Caller holds r.mu.
func (r *Registry) restoreTenant(id string) error {
	cfg, err := r.loadConfig(id)
	if err != nil {
		return err
	}
	s, err := wgrap.RestoreSolver(filepath.Join(r.dataDir, id), configOptions(cfg)...)
	if err != nil {
		return err
	}
	r.tenants[id] = newTenant(id, s, cfg, true)
	return nil
}

// Adopt registers a tenant from durable state written out of band — the
// replication bootstrap path: a cluster follower materialises a snapshot +
// journal it fetched from the owner into dataDir/<id> and then adopts it,
// which saves the shipped config and restores the solver exactly like crash
// recovery would. It fails when the id is already live or the directory
// holds no durable state.
func (r *Registry) Adopt(id string, cfg wire.TenantConfig) (*Tenant, error) {
	if !validTenantID(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenantID, id)
	}
	if r.dataDir == "" {
		return nil, errors.New("tenant: Adopt requires a durable registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	if !durable.Exists(filepath.Join(r.dataDir, id)) {
		return nil, fmt.Errorf("%w: %q has no durable state to adopt", ErrTenantNotFound, id)
	}
	if err := r.saveConfig(id, cfg); err != nil {
		return nil, err
	}
	if err := r.restoreTenant(id); err != nil {
		return nil, err
	}
	return r.tenants[id], nil
}

func newTenant(id string, s *wgrap.Solver, cfg wire.TenantConfig, durableTenant bool) *Tenant {
	t := &Tenant{
		ID: id, Solver: s, Config: cfg, Durable: durableTenant,
		hub:     newHub(),
		tickets: make(map[string]*wgrap.Ticket),
	}
	// Fan every anytime snapshot out to the tenant's SSE subscribers. The
	// callback runs on the solving goroutine, so it must never block: the hub
	// drops events for slow subscribers instead.
	s.OnImprovement(func(sn wgrap.Snapshot) {
		t.hub.broadcast(wire.Progress{
			Phase: sn.Phase, Round: sn.Round, Score: sn.Score, ElapsedNS: int64(sn.Elapsed),
		})
	})
	return t
}

func (r *Registry) saveConfig(id string, cfg wire.TenantConfig) error {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.dataDir, id, configFile), raw, 0o644)
}

func (r *Registry) loadConfig(id string) (wire.TenantConfig, error) {
	var cfg wire.TenantConfig
	raw, err := os.ReadFile(filepath.Join(r.dataDir, id, configFile))
	if errors.Is(err, os.ErrNotExist) {
		return cfg, nil // defaults
	}
	if err != nil {
		return cfg, err
	}
	err = json.Unmarshal(raw, &cfg)
	return cfg, err
}

// Get returns a tenant by id.
func (r *Registry) Get(id string) (*Tenant, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	return t, nil
}

// Has reports whether a tenant id is live without allocating an error.
func (r *Registry) Has(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.tenants[id]
	return ok
}

// List returns the tenant ids, sorted.
func (r *Registry) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.tenants))
	for id := range r.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Delete closes a tenant's session and unregisters it. Durable state stays
// on disk: re-creating the tenant with the same id is refused until the
// directory is removed out of band, and a server restart restores it.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	t, ok := r.tenants[id]
	delete(r.tenants, id)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	t.hub.closeAll()
	return t.Solver.Close()
}

// Purge deletes a tenant (if live) and removes its durable directory — the
// replication cleanup path, used when the owner reports a replicated tenant
// gone so the follower's stale copy must not resurrect it. Unlike Delete it
// succeeds when only on-disk state exists.
func (r *Registry) Purge(id string) error {
	if !validTenantID(id) {
		return fmt.Errorf("%w: %q", ErrBadTenantID, id)
	}
	err := r.Delete(id)
	if err != nil && !errors.Is(err, ErrTenantNotFound) {
		return err
	}
	if r.dataDir != "" {
		if rmErr := os.RemoveAll(filepath.Join(r.dataDir, id)); rmErr != nil {
			return rmErr
		}
	}
	return nil
}

// Close shuts every tenant down: journals flushed and closed, SSE
// subscribers released. The registry is unusable afterwards.
func (r *Registry) Close() error {
	r.mu.Lock()
	tenants := r.tenants
	r.tenants = make(map[string]*Tenant)
	r.mu.Unlock()
	var first error
	for _, t := range tenants {
		t.hub.closeAll()
		if err := t.Solver.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewTicket registers an async-resolve ticket under a fresh token.
func (r *Registry) NewTicket(t *Tenant, tk *wgrap.Ticket) string {
	token := fmt.Sprintf("tk-%d", r.ticketSeq.Add(1))
	t.ticketMu.Lock()
	t.tickets[token] = tk
	t.ticketMu.Unlock()
	return token
}

// TicketStatus reports the async resolve behind token without blocking:
// done-ness is a non-blocking read of the ticket's completion channel, and a
// completed ticket carries its result or error. ok is false for an unknown
// token. Completed tickets stay queryable until the tenant is deleted (they
// are O(1) each; a venue's edit stream is far smaller than memory).
func (t *Tenant) TicketStatus(token string) (*wire.TicketStatus, bool) {
	t.ticketMu.Lock()
	tk, ok := t.tickets[token]
	t.ticketMu.Unlock()
	if !ok {
		return nil, false
	}
	st := &wire.TicketStatus{}
	select {
	case <-tk.Done():
		st.Done = true
		res, err := tk.Wait(context.Background()) // completed: returns immediately
		if err != nil {
			st.Error = ToWireError(err)
		} else {
			st.Version = tk.Version()
			st.Result = ResultOf(res)
		}
	default:
	}
	return st, true
}

// Subscribe attaches a progress subscriber to the tenant's SSE hub; the
// in-process (mem://) client uses it to offer the same lossy progress stream
// the HTTP endpoint serves. The cancel function is idempotent; the channel
// closes on cancel and on tenant shutdown.
func (t *Tenant) Subscribe() (<-chan wire.Progress, func()) {
	return t.hub.subscribe()
}
