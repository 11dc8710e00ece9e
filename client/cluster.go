package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// This file is the shard-map-aware side of the http client. The client
// probes GET /cluster/map once on first use: a single-node wgrap-serve
// answers 404 and every call passes through to the bootstrap URL unchanged
// (the embedded↔remote duality is untouched); a cluster node answers with
// the epoch-stamped shard map, and from then on the client computes each
// venue's owner itself — the same consistent hash over the same alive set —
// and talks to owners directly. Routing errors self-heal: a not_owner
// envelope redirects (refreshing the cached map when the responder's epoch
// is ahead), and a dead node is marked locally, the map refetched from a
// survivor, and the call retried against the promoted follower.

// clusterRetryBudget bounds how long a routed call chases redirects and
// failovers before giving up; failure detection on the servers runs on a
// sub-second probe interval, so this covers several transitions.
const clusterRetryBudget = 15 * time.Second

// failoverPause is the backoff between retries while the cluster has not
// yet observed a death the client ran into.
const failoverPause = 100 * time.Millisecond

// notOwnerError is the typed form of a not_owner envelope: the addressed
// node is alive but does not own the venue. It carries the owner hint and
// the responder's shard-map epoch.
type notOwnerError struct{ we *wire.Error }

func (e *notOwnerError) Error() string { return e.we.Error() }

// transportError marks a failure to reach a node (dial error, reset, death
// mid-response) as opposed to an application error a server sent back.
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// clusterView is the cached shard map.
type clusterView struct {
	epoch  uint64
	vnodes int
	nodes  []wire.NodeInfo
}

// ticketRef remembers which node issued an async-resolve ticket, and the
// token it knows the ticket by (re-issued tickets keep the caller's token
// but map to a fresh one on the new owner).
type ticketRef struct {
	addr  string
	token string
}

// clusterView lazily probes the bootstrap node. nil view = not a cluster.
func (c *httpClient) clusterView(ctx context.Context) (*clusterView, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.probed {
		return c.cv, nil
	}
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/cluster/map", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &transportError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		c.probed = true // single-node server: stay in passthrough mode
		return nil, nil
	}
	var sm wire.ShardMap
	if err := json.NewDecoder(resp.Body).Decode(&sm); err != nil || len(sm.Nodes) == 0 {
		c.probed = true
		return nil, nil
	}
	c.probed = true
	c.cv = &clusterView{epoch: sm.Epoch, vnodes: sm.VNodes, nodes: sm.Nodes}
	return c.cv, nil
}

// adoptMap replaces the cached view when sm is at least as new.
func (c *httpClient) adoptMap(sm *wire.ShardMap) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.cv == nil || sm.Epoch < c.cv.epoch {
		return
	}
	c.cv = &clusterView{epoch: sm.Epoch, vnodes: sm.VNodes, nodes: sm.Nodes}
	// A node this client marked dead in an older epoch but the newer map
	// reports alive has recovered (or the mark was a transient): clear it.
	for _, n := range sm.Nodes {
		if e, ok := c.dead[n.ID]; ok && n.Alive && sm.Epoch > e {
			delete(c.dead, n.ID)
		}
	}
}

// refreshMap refetches the shard map: from hintAddr first when given, then
// from every node not locally marked dead, then from the bootstrap URL.
func (c *httpClient) refreshMap(ctx context.Context, hintAddr string) {
	var bases []string
	if hintAddr != "" {
		bases = append(bases, "http://"+hintAddr)
	}
	c.cmu.Lock()
	if c.cv != nil {
		for _, n := range c.cv.nodes {
			if _, deadLocal := c.dead[n.ID]; !deadLocal && n.Alive {
				bases = append(bases, "http://"+n.Addr)
			}
		}
	}
	c.cmu.Unlock()
	bases = append(bases, c.base)
	for _, b := range bases {
		var sm wire.ShardMap
		if err := c.callAt(ctx, "GET", b, "/cluster/map", nil, &sm); err == nil && len(sm.Nodes) > 0 {
			c.adoptMap(&sm)
			return
		}
	}
}

// ownerOf computes the venue's owner under the cached map with the local
// dead overlay applied: the same ring the servers build, minus the nodes
// this client could not reach. Empty addr means no alive node is left.
func (c *httpClient) ownerOf(id string) (node, addr string) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.cv == nil {
		return "", ""
	}
	var aliveIDs []string
	for _, n := range c.cv.nodes {
		if _, deadLocal := c.dead[n.ID]; n.Alive && !deadLocal {
			aliveIDs = append(aliveIDs, n.ID)
		}
	}
	node = cluster.NewRing(aliveIDs, c.cv.vnodes).Owner(id)
	for _, n := range c.cv.nodes {
		if n.ID == node {
			return node, n.Addr
		}
	}
	return node, ""
}

// markDeadAddr records that addr could not be reached, pinning the mark to
// the current epoch so a newer map can lift it.
func (c *httpClient) markDeadAddr(addr string) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.cv == nil {
		return
	}
	for _, n := range c.cv.nodes {
		if n.Addr == addr {
			c.dead[n.ID] = c.cv.epoch
			return
		}
	}
}

// markAliveAddr clears a local dead mark — the node answered us.
func (c *httpClient) markAliveAddr(addr string) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.cv == nil {
		return
	}
	for _, n := range c.cv.nodes {
		if n.Addr == addr {
			delete(c.dead, n.ID)
			return
		}
	}
}

func (c *httpClient) epochNow() uint64 {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.cv == nil {
		return 0
	}
	return c.cv.epoch
}

// tenantCall routes one tenant-scoped request (path /v1/tenants/{id}+suffix)
// to the venue's owner, returning the node address that finally answered.
func (c *httpClient) tenantCall(ctx context.Context, id, method, suffix string, body, out any) (string, error) {
	return c.routedCall(ctx, id, method, "/v1/tenants/"+id+suffix, body, out)
}

// routedCall is the owner-routing retry loop shared by every cluster-aware
// request: compute the owner from the cached map, follow not_owner redirects
// (refreshing the map when the responder's epoch is ahead of ours), and on a
// transport failure mark the node dead, refresh the map from a survivor and
// retry against the new owner, until the call lands or the budget runs out.
func (c *httpClient) routedCall(ctx context.Context, routeID, method, path string, body, out any) (string, error) {
	cv, err := c.clusterView(ctx)
	if err != nil {
		return "", err
	}
	if cv == nil {
		return c.base, c.call(ctx, method, path, body, out)
	}
	deadline := time.Now().Add(clusterRetryBudget)
	_, addr := c.ownerOf(routeID)
	var lastErr error
	for {
		if addr == "" {
			if lastErr != nil {
				return "", lastErr
			}
			return "", fmt.Errorf("client: no alive node owns tenant %q", routeID)
		}
		err := c.callAt(ctx, method, "http://"+addr, path, body, out)
		var no *notOwnerError
		var te *transportError
		switch {
		case err == nil:
			c.markAliveAddr(addr)
			return addr, nil
		case errors.As(err, &no):
			c.markAliveAddr(addr)
			addr = c.redirect(ctx, routeID, addr, no)
		case errors.As(err, &te):
			c.markDeadAddr(addr)
			c.refreshMap(ctx, "")
			_, next := c.ownerOf(routeID)
			if next == addr {
				time.Sleep(failoverPause)
				_, next = c.ownerOf(routeID)
			}
			addr = next
		default:
			return addr, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return addr, ctx.Err()
		}
		if time.Now().After(deadline) {
			return addr, lastErr
		}
	}
}

// redirect resolves the next address after a not_owner answer: trust the
// responder's owner hint, and when its epoch is ahead of the cached map,
// refresh from it so the local ring catches up before the retry.
func (c *httpClient) redirect(ctx context.Context, routeID, from string, no *notOwnerError) string {
	if no.we.Epoch > c.epochNow() {
		c.refreshMap(ctx, from)
	}
	if no.we.OwnerAddr != "" && no.we.OwnerAddr != from {
		return no.we.OwnerAddr
	}
	_, addr := c.ownerOf(routeID)
	if addr == from {
		// The responder denies owning a venue our (and maybe its) map says it
		// owns — an epoch transition in flight. Brief pause, refreshed map.
		time.Sleep(failoverPause)
		c.refreshMap(ctx, "")
		_, addr = c.ownerOf(routeID)
	}
	return addr
}

// clusterTenants lists tenants across the cluster: fan out to every alive
// node, union, sort. Single-node mode lists the bootstrap server.
func (c *httpClient) clusterTenants(ctx context.Context) ([]string, error) {
	cv, err := c.clusterView(ctx)
	if err != nil {
		return nil, err
	}
	if cv == nil {
		var list wire.TenantList
		if err := c.call(ctx, "GET", "/v1/tenants", nil, &list); err != nil {
			return nil, err
		}
		return list.Tenants, nil
	}
	c.cmu.Lock()
	var addrs []string
	for _, n := range cv.nodes {
		if _, deadLocal := c.dead[n.ID]; n.Alive && !deadLocal {
			addrs = append(addrs, n.Addr)
		}
	}
	c.cmu.Unlock()
	seen := make(map[string]bool)
	var lastErr error
	ok := false
	for _, addr := range addrs {
		var list wire.TenantList
		if err := c.callAt(ctx, "GET", "http://"+addr, "/v1/tenants", nil, &list); err != nil {
			lastErr = err
			continue
		}
		ok = true
		for _, id := range list.Tenants {
			seen[id] = true
		}
	}
	if !ok {
		return nil, lastErr
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// editErrEnvelope is the error body of a partially applied edit batch: the
// wire error plus the accepted count and post-batch sequence.
type editErrEnvelope struct {
	wire.Error
	Accepted int    `json:"accepted"`
	Seq      uint64 `json:"seq"`
}

// editAt posts one edit batch to addr. Returns the response and an
// application error (batch rejected at some prefix) — or a routing error
// (*notOwnerError / *transportError) with a nil response.
func (c *httpClient) editAt(ctx context.Context, addr, id string, edits []wire.Edit) (*wire.EditResponse, error, error) {
	raw, err := json.Marshal(wire.EditRequest{Edits: edits})
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST",
		"http://"+addr+"/v1/tenants/"+id+"/edits", bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, &transportError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		out := &wire.EditResponse{}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, nil, &transportError{err: err}
		}
		return out, nil, nil
	}
	var env editErrEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Code == "" {
		return nil, nil, &transportError{err: fmt.Errorf("edit: unexpected status %d", resp.StatusCode)}
	}
	if env.Code == wire.CodeNotOwner {
		return nil, nil, &notOwnerError{we: &env.Error}
	}
	return &wire.EditResponse{Accepted: env.Accepted, Seq: env.Seq}, fromWireError(&env.Error), nil
}

// clusterEdit is Edit with failover reconciliation. The risk a cluster adds
// over a single server is an owner dying between accepting part of a batch
// and acknowledging it; the journal sequence closes that window. The client
// pins the tenant's sequence before sending; after a transport failure it
// asks the promoted follower (whose replica holds every acknowledged —
// synchronously replicated — record) for its sequence, and the difference is
// exactly how many edits of the batch survived. It resends the unaccepted
// suffix to the new owner, so the accepted-prefix contract holds across the
// reroute. Reviewer pool indices of add-reviewer edits are only reported for
// edits acknowledged directly (not reconstructed for the survived prefix).
func (c *httpClient) clusterEdit(ctx context.Context, id string, edits []wire.Edit) (*wire.EditResponse, error) {
	cv, err := c.clusterView(ctx)
	if err != nil {
		return nil, err
	}
	if cv == nil {
		resp := &wire.EditResponse{}
		if err := c.call(ctx, "POST", "/v1/tenants/"+id+"/edits", wire.EditRequest{Edits: edits}, resp); err != nil {
			return nil, err
		}
		return resp, nil
	}
	pre, known := c.knownSeq(id)
	if !known {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		pre = st.Seq
	}
	total := &wire.EditResponse{}
	remaining := edits
	deadline := time.Now().Add(clusterRetryBudget)
	_, addr := c.ownerOf(id)
	var lastErr error
	for {
		if addr == "" {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, fmt.Errorf("client: no alive node owns tenant %q", id)
		}
		resp, appErr, routeErr := c.editAt(ctx, addr, id, remaining)
		var no *notOwnerError
		var te *transportError
		switch {
		case routeErr == nil:
			c.markAliveAddr(addr)
			total.Accepted += resp.Accepted
			total.ReviewerIndices = append(total.ReviewerIndices, resp.ReviewerIndices...)
			total.Seq = resp.Seq
			c.setSeq(id, resp.Seq)
			if appErr != nil {
				return total, appErr
			}
			return total, nil
		case errors.As(routeErr, &no):
			c.markAliveAddr(addr)
			addr = c.redirect(ctx, id, addr, no)
		case errors.As(routeErr, &te):
			// The owner died with the batch in flight. Find the survivor and
			// reconcile: its sequence minus the pre-batch sequence is the
			// accepted prefix; resend the rest.
			c.markDeadAddr(addr)
			c.refreshMap(ctx, "")
			st, err := c.Status(ctx, id) // routed: retries to the new owner
			if err != nil {
				return nil, fmt.Errorf("client: reconciling interrupted edit batch: %w", err)
			}
			survived := 0
			if st.Seq > pre {
				survived = int(st.Seq - pre)
			}
			if survived > len(remaining) {
				survived = len(remaining)
			}
			total.Accepted += survived
			remaining = remaining[survived:]
			pre = st.Seq
			total.Seq = st.Seq
			c.setSeq(id, st.Seq)
			if len(remaining) == 0 {
				return total, nil
			}
			_, addr = c.ownerOf(id)
		default:
			return nil, routeErr
		}
		lastErr = routeErr
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, lastErr
		}
	}
}

// clusterTicket polls an async-resolve ticket. Tickets live on the node that
// issued them (any node holding the tenant answers its own tickets); when
// that node dies the token dies with it, so the client transparently
// re-issues the resolve on the current owner and keeps polling under the
// caller's original token.
func (c *httpClient) clusterTicket(ctx context.Context, id, token string) (*wire.TicketStatus, error) {
	cv, err := c.clusterView(ctx)
	if err != nil {
		return nil, err
	}
	if cv == nil {
		st := &wire.TicketStatus{}
		if err := c.call(ctx, "GET", "/v1/tenants/"+id+"/tickets/"+token, nil, st); err != nil {
			return nil, err
		}
		return st, nil
	}
	ref, ok := c.ticketFor(token)
	if !ok {
		// Not issued through this client: route to the owner.
		st := &wire.TicketStatus{}
		if _, err := c.tenantCall(ctx, id, "GET", "/tickets/"+token, nil, st); err != nil {
			return nil, err
		}
		return st, nil
	}
	st := &wire.TicketStatus{}
	err = c.callAt(ctx, "GET", "http://"+ref.addr, "/v1/tenants/"+id+"/tickets/"+ref.token, nil, st)
	if err == nil {
		return st, nil
	}
	var te *transportError
	var no *notOwnerError
	if !errors.As(err, &te) && !errors.As(err, &no) {
		return nil, err
	}
	// The issuing node is gone (or lost the tenant). Re-issue the coalescing
	// resolve on the current owner and remap the caller's token onto the
	// fresh one; the solve the old ticket tracked either finished (its result
	// is in the replicated view) or died with the node, and the re-issued
	// solve covers both.
	if errors.As(err, &te) {
		c.markDeadAddr(ref.addr)
		c.refreshMap(ctx, "")
	}
	var tk wire.Ticket
	addr, err := c.tenantCall(ctx, id, "POST", "/resolve-async", nil, &tk)
	if err != nil {
		return nil, fmt.Errorf("client: re-issuing ticket %q after node loss: %w", token, err)
	}
	c.rememberTicket(token, addr, tk.Ticket)
	st = &wire.TicketStatus{}
	if err := c.callAt(ctx, "GET", "http://"+addr, "/v1/tenants/"+id+"/tickets/"+tk.Ticket, nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

func (c *httpClient) knownSeq(id string) (uint64, bool) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	s, ok := c.seqs[id]
	return s, ok
}

func (c *httpClient) setSeq(id string, seq uint64) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	c.seqs[id] = seq
}

func (c *httpClient) forgetTenant(id string) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	delete(c.seqs, id)
	delete(c.views, id)
}

func (c *httpClient) rememberTicket(token, addr, remote string) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	c.tickets[token] = ticketRef{addr: addr, token: remote}
}

func (c *httpClient) ticketFor(token string) (ticketRef, bool) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	ref, ok := c.tickets[token]
	return ref, ok
}
