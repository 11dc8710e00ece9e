package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/durable"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// replicaFor returns (creating if needed) the per-tenant replication state.
func (m *Member) replicaFor(id string) *replica {
	m.repMu.Lock()
	defer m.repMu.Unlock()
	rep, ok := m.reps[id]
	if !ok {
		rep = &replica{}
		m.reps[id] = rep
	}
	return rep
}

func (m *Member) dropReplica(id string) {
	m.repMu.Lock()
	delete(m.reps, id)
	m.repMu.Unlock()
}

// NotifyWrite ships the records an accepted edit batch appended to tenant
// id's journal to the tenant's ring successor, synchronously: the HTTP
// handler calls it before acknowledging the batch, so by the time a client
// sees the ack the follower holds the records too — which is what makes an
// owner SIGKILL lose no acknowledged edit. Shipping is still best-effort
// against the follower (a down follower must not take the owner down with
// it): on failure the tail position rewinds so the next write re-ships the
// missed suffix, and the periodic pull loop covers the gap meanwhile.
func (m *Member) NotifyWrite(id string) {
	_, successor := m.ownerAndSuccessor(id)
	if successor == "" || successor == m.cfg.Self {
		return // nobody to replicate to (single alive node)
	}
	m.mu.Lock()
	addr := m.addrLocked(successor)
	m.mu.Unlock()

	rep := m.replicaFor(id)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.tail == nil {
		st, err := durable.ReadState(m.reg.Dir(id))
		if err != nil {
			m.logf("cluster: push %s: reading snapshot: %v", id, err)
			return
		}
		rep.tail = durable.NewTailReader(m.reg.Dir(id), st.Seq)
	}
	start := rep.tail.Seq()
	recs, err := rep.tail.Drain()
	if err != nil {
		// A compaction folded unshipped records into the snapshot; the
		// follower's pull loop re-bootstraps past the horizon. Restart the
		// tail at the new snapshot.
		m.logf("cluster: push %s: %v (follower will re-bootstrap)", id, err)
		rep.tail = nil
		return
	}
	if len(recs) == 0 {
		return
	}
	if err := m.pushRecords(addr, id, recs); err != nil {
		m.logf("cluster: push %s -> %s: %v", id, successor, err)
		rep.tail = durable.NewTailReader(m.reg.Dir(id), start) // re-ship next time
		if errors.Is(err, errNotBootstrapped) {
			// Don't wait for the follower's discovery poll: a synchronous
			// follow request bootstraps it now, so the next accepted edit
			// replicates before it is acknowledged.
			m.requestFollow(addr, id)
		}
	}
}

// errNotBootstrapped: the follower answered a record push for a tenant it
// has no replica of yet.
var errNotBootstrapped = errors.New("follower has not bootstrapped the tenant yet")

// EnsureFollower synchronously asks tenant id's ring successor to bootstrap
// a replica. The create handler calls it right after a tenant is created:
// without it, every edit acknowledged before the follower's first discovery
// poll (ReplicaPoll later) would ride on the owner's disk alone — an owner
// SIGKILL inside that window would lose the whole tenant to the cluster.
// Best-effort: a down follower must not fail tenant creation.
func (m *Member) EnsureFollower(id string) {
	_, successor := m.ownerAndSuccessor(id)
	if successor == "" || successor == m.cfg.Self {
		return
	}
	m.mu.Lock()
	addr := m.addrLocked(successor)
	m.mu.Unlock()
	if addr == "" {
		return
	}
	m.requestFollow(addr, id)
}

func (m *Member) requestFollow(addr, id string) {
	code, err := m.peer("POST", addr, "/cluster/tenants/"+id+"/follow", m.cfg.PushTimeout, nil, nil)
	switch {
	case err != nil:
		m.logf("cluster: follow request %s -> %s: %v", id, addr, err)
	case code != http.StatusOK:
		m.logf("cluster: follow request %s -> %s: %d %s", id, addr, code, http.StatusText(code))
	}
}

func (m *Member) pushRecords(addr, id string, recs []durable.Record) error {
	code, err := m.peer("POST", addr, "/cluster/tenants/"+id+"/records", m.cfg.PushTimeout, RecordChunk{Records: recs}, nil)
	switch {
	case err != nil:
		return err
	case code == http.StatusNotFound:
		return errNotBootstrapped
	case code != http.StatusOK:
		return fmt.Errorf("follower answered %d %s", code, http.StatusText(code))
	}
	return nil
}

// ingest applies shipped journal records to this node's replica of tenant
// id, in sequence. Records at or below the replica's sequence are skipped
// (re-shipped suffix after a push failure); a record skipping ahead is a
// gap the pull loop must fill, reported as an error so the pusher rewinds.
// After applying, a coalescing async re-solve keeps the standby warm.
func (m *Member) ingest(id string, recs []durable.Record) error {
	t, err := m.reg.Get(id)
	if err != nil {
		return err
	}
	rep := m.replicaFor(id)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	applied := false
	for _, rec := range recs {
		cur := t.Solver.Seq()
		if rec.Seq <= cur {
			continue
		}
		if rec.Seq != cur+1 {
			return fmt.Errorf("cluster: replica %s at seq %d cannot apply record seq %d", id, cur, rec.Seq)
		}
		if _, err := tenant.ApplyEdits(t, []wire.Edit{rec.Edit}); err != nil {
			// The owner journaled this record after accepting the edit, so the
			// replica (same snapshot, same prefix) must accept it too; failure
			// means the replica has diverged and must re-bootstrap.
			return fmt.Errorf("cluster: replica %s rejected journaled edit at seq %d: %w", id, rec.Seq, err)
		}
		applied = true
	}
	if applied {
		t.Solver.ResolveAsync() // keep the standby warm (coalescing)
	}
	return nil
}

// syncLoop is the pull side of replication: it discovers tenants this node
// should follow (it is their owner's ring successor) and bootstraps them
// from the owner, keeps existing replicas caught up, purges replicas of
// tenants their owner deleted, and drops replica state this node no longer
// needs. Push keeps followers current record-by-record; the pull loop is
// what makes replication converge from any state (fresh node, missed
// pushes, compaction horizon).
func (m *Member) syncLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.ReplicaPoll)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		m.syncOnce()
	}
}

func (m *Member) syncOnce() {
	sm := m.Map()
	// Discover tenants to follow: every tenant living on an alive peer whose
	// ring successor is this node.
	for _, n := range sm.Nodes {
		if n.ID == m.cfg.Self || !n.Alive {
			continue
		}
		ids, err := m.listTenants(n.Addr)
		if err != nil {
			continue // prober will mark it dead if it stays unreachable
		}
		for _, id := range ids {
			owner, successor := m.ownerAndSuccessor(id)
			if owner != n.ID || successor != m.cfg.Self || m.reg.Has(id) {
				continue
			}
			// Serialize with an owner-requested follow of the same tenant
			// (handleFollow) — only one side may materialize the replica.
			rep := m.replicaFor(id)
			rep.mu.Lock()
			if m.reg.Has(id) {
				rep.mu.Unlock()
				continue
			}
			err := m.bootstrap(id, n.Addr)
			rep.mu.Unlock()
			if err != nil {
				m.logf("cluster: bootstrap %s from %s: %v", id, n.ID, err)
			} else {
				m.logf("cluster: following %s (owner %s)", id, n.ID)
			}
		}
	}
	// Catch existing replicas up (and purge the ones whose owner deleted the
	// tenant). Tenants this node owns are served, not pulled.
	for _, id := range m.reg.List() {
		owner, _ := m.ownerAndSuccessor(id)
		if owner == m.cfg.Self {
			continue
		}
		m.mu.Lock()
		addr := m.addrLocked(owner)
		aliveOwner := m.alive[owner]
		m.mu.Unlock()
		if !aliveOwner || addr == "" {
			continue // owner dead: the ring already promoted someone
		}
		if err := m.pullOnce(id, addr); err != nil {
			m.logf("cluster: pull %s from %s: %v", id, owner, err)
		}
	}
}

func (m *Member) listTenants(addr string) ([]string, error) {
	var list wire.TenantList
	code, err := m.peer("GET", addr, "/v1/tenants", m.cfg.PushTimeout, nil, &list)
	switch {
	case err != nil:
		return nil, err
	case code != http.StatusOK:
		return nil, fmt.Errorf("listing tenants: %d %s", code, http.StatusText(code))
	}
	return list.Tenants, nil
}

// fetchJournal pulls a tenant's journal chunk from its owner. A nil chunk
// with nil error means the owner no longer has the tenant (deleted).
func (m *Member) fetchJournal(addr, id string, after uint64, bootstrap bool) (*JournalChunk, error) {
	path := fmt.Sprintf("/cluster/tenants/%s/journal?after=%d", id, after)
	if bootstrap {
		path += "&bootstrap=1"
	}
	var chunk JournalChunk
	code, err := m.peer("GET", addr, path, m.cfg.PushTimeout, nil, &chunk)
	switch {
	case err != nil:
		return nil, err
	case code == http.StatusNotFound:
		return nil, nil // owner is alive and the tenant is gone: deleted
	case code != http.StatusOK:
		return nil, fmt.Errorf("journal fetch: %d %s", code, http.StatusText(code))
	}
	return &chunk, nil
}

// bootstrap materialises a follower replica of tenant id from its owner's
// snapshot + journal and adopts it into the registry as a warm standby.
func (m *Member) bootstrap(id, ownerAddr string) error {
	chunk, err := m.fetchJournal(ownerAddr, id, 0, true)
	if err != nil {
		return err
	}
	if chunk == nil {
		return nil // deleted while we were discovering it
	}
	if chunk.Snapshot == nil {
		return errors.New("owner sent no snapshot")
	}
	if err := durable.Materialize(m.reg.Dir(id), chunk.Snapshot, chunk.Records); err != nil {
		return err
	}
	t, err := m.reg.Adopt(id, chunk.Config)
	if err != nil {
		return err
	}
	t.Solver.ResolveAsync() // warm the standby
	return nil
}

// pullOnce catches one replica up to its owner. When the replica has fallen
// behind the owner's compaction horizon (the chunk's snapshot is ahead of
// the replica), it is re-bootstrapped from the snapshot.
func (m *Member) pullOnce(id, ownerAddr string) error {
	t, err := m.reg.Get(id)
	if err != nil {
		return err
	}
	after := t.Solver.Seq()
	chunk, err := m.fetchJournal(ownerAddr, id, after, false)
	if err != nil {
		return err
	}
	if chunk == nil {
		// Owner is alive and no longer has the tenant: it was deleted. The
		// replica must not survive to resurrect it at the next failover.
		m.logf("cluster: tenant %s deleted by owner; purging replica", id)
		m.dropReplica(id)
		return m.reg.Purge(id)
	}
	if chunk.Snapshot != nil && chunk.Snapshot.Seq > after {
		// Behind the compaction horizon: the journal alone cannot catch us
		// up. Rebuild the replica from the owner's current snapshot.
		m.logf("cluster: replica %s behind compaction horizon (at %d, snapshot %d); re-bootstrapping", id, after, chunk.Snapshot.Seq)
		m.dropReplica(id)
		if err := m.reg.Purge(id); err != nil {
			return err
		}
		if err := durable.Materialize(m.reg.Dir(id), chunk.Snapshot, chunk.Records); err != nil {
			return err
		}
		t, err := m.reg.Adopt(id, chunk.Config)
		if err != nil {
			return err
		}
		t.Solver.ResolveAsync()
		return nil
	}
	return m.ingest(id, chunk.Records)
}
