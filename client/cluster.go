package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// This file is the routing side of the http client. Every wgrap-serve is a
// ring, so the client fetches GET /cluster/map from the bootstrap URL on
// first use and from then on computes each venue's owner itself — the same
// consistent hash over the same alive set — and talks to owners directly.
// The node that answered the bootstrap URL (the map's Self) is reached
// through that URL, every other node through its advertised address.
// Routing errors self-heal: a not_owner envelope redirects (refreshing the
// cached map when the responder's epoch is ahead), and a dead node is marked
// locally, the map refetched from a survivor, and the call retried against
// the promoted follower.

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

// ticketRef remembers which node issued an async-resolve ticket, and the
// token it knows the ticket by (re-issued tickets keep the caller's token
// but map to a fresh one on the new owner).
type ticketRef struct {
	base  string
	token string
}

// baseLocked returns the URL that reaches node n: the bootstrap URL for the
// node that answered it, the node's advertised address for every other.
// Caller holds cmu.
func (c *httpClient) baseLocked(n wire.NodeInfo) string {
	if n.ID == c.boot {
		return c.base
	}
	return "http://" + n.Addr
}

// aliveLocked lists the nodes the cached map reports alive and this client
// has not marked dead. Caller holds cmu.
func (c *httpClient) aliveLocked() []wire.NodeInfo {
	var alive []wire.NodeInfo
	if c.cv != nil {
		for _, n := range c.cv.Nodes {
			if _, deadLocal := c.dead[n.ID]; n.Alive && !deadLocal {
				alive = append(alive, n)
			}
		}
	}
	return alive
}

// aliveBases returns the URLs of aliveLocked's nodes.
func (c *httpClient) aliveBases() []string {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	var bases []string
	for _, n := range c.aliveLocked() {
		bases = append(bases, c.baseLocked(n))
	}
	return bases
}

// buildRingLocked rebuilds the ring the client routes by, over aliveLocked's
// nodes. It runs once per adopted map and whenever a dead mark is set or
// lifted. Caller holds cmu.
func (c *httpClient) buildRingLocked() {
	var ids []string
	for _, n := range c.aliveLocked() {
		ids = append(ids, n.ID)
	}
	c.ring = cluster.NewRing(ids)
}

// adoptMap takes in a map fetched from base. Its sender answered, so the
// sender's dead mark is lifted whatever the map's epoch — a restarted ring
// comes back at epoch 1. The map replaces the cached one when it is at least
// as new.
func (c *httpClient) adoptMap(base string, sm *wire.ShardMap) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if base == c.base {
		c.boot = sm.Self
	}
	_, lifted := c.dead[sm.Self]
	delete(c.dead, sm.Self)
	if c.cv == nil || sm.Epoch >= c.cv.Epoch {
		c.cv = sm
		// A node this client marked dead in an older epoch but the newer map
		// reports alive has recovered (or the mark was a transient): clear it.
		for _, n := range sm.Nodes {
			if e, ok := c.dead[n.ID]; ok && n.Alive && sm.Epoch > e {
				delete(c.dead, n.ID)
			}
		}
	} else if !lifted {
		return
	}
	c.buildRingLocked()
}

// refreshMap refetches the shard map: from hint first when given, then from
// every node not locally marked dead, then from the bootstrap URL. It fails
// with the last fetch's error when no node answered with a map; callers that
// go on routing by the cached map ignore that error.
func (c *httpClient) refreshMap(ctx context.Context, hint string) error {
	var bases []string
	if hint != "" {
		bases = append(bases, hint)
	}
	bases = append(append(bases, c.aliveBases()...), c.base)
	var err error
	for _, b := range bases {
		var sm wire.ShardMap
		if err = c.callAt(ctx, "GET", b, "/cluster/map", nil, &sm); err == nil {
			if len(sm.Nodes) > 0 {
				c.adoptMap(b, &sm)
				return nil
			}
			err = fmt.Errorf("client: empty shard map from %s", b)
		}
	}
	return err
}

// ownerOf returns the URL of the venue's owner under the cached ring: the
// same ring the servers build, minus the nodes this client could not reach.
// Empty means there is no map yet or no alive node is left.
func (c *httpClient) ownerOf(id string) string {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.ring == nil {
		return ""
	}
	node := c.ring.Owner(id)
	for _, n := range c.cv.Nodes {
		if n.ID == node {
			return c.baseLocked(n)
		}
	}
	return ""
}

// ownerBase is ownerOf for the start of a routed call. It fetches the map on
// first use, and when the dead marks leave no owner — every node failed a
// call, as when the whole ring restarted — it refetches the map once before
// giving up, since a fetch lifts its sender's mark.
func (c *httpClient) ownerBase(ctx context.Context, id string) (string, error) {
	if base := c.ownerOf(id); base != "" {
		return base, nil
	}
	if err := c.refreshMap(ctx, ""); err != nil {
		return "", err
	}
	if base := c.ownerOf(id); base != "" {
		return base, nil
	}
	return "", fmt.Errorf("client: no alive node owns tenant %q", id)
}

// nodeAtLocked finds the node base reaches. Caller holds cmu.
func (c *httpClient) nodeAtLocked(base string) (string, bool) {
	if c.cv != nil {
		for _, n := range c.cv.Nodes {
			if c.baseLocked(n) == base {
				return n.ID, true
			}
		}
	}
	return "", false
}

// markDead records that base could not be reached, pinning the mark to the
// current epoch so a newer map can lift it.
func (c *httpClient) markDead(base string) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if id, ok := c.nodeAtLocked(base); ok {
		_, marked := c.dead[id]
		c.dead[id] = c.cv.Epoch
		if !marked {
			c.buildRingLocked()
		}
	}
}

// markAlive clears a local dead mark — the node at base answered us.
func (c *httpClient) markAlive(base string) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if len(c.dead) == 0 {
		return
	}
	if id, ok := c.nodeAtLocked(base); ok {
		if _, marked := c.dead[id]; marked {
			delete(c.dead, id)
			c.buildRingLocked()
		}
	}
}

// tenantCall routes one tenant-scoped request (path /v1/tenants/{id}+suffix)
// to the venue's owner, returning the URL of the node that finally answered.
func (c *httpClient) tenantCall(ctx context.Context, id, method, suffix string, body, out any) (string, error) {
	return c.routedCall(ctx, id, method, "/v1/tenants/"+id+suffix, body, out)
}

// routedCall is the owner-routing retry loop shared by every request: compute
// the owner from the cached map, follow not_owner redirects (refreshing the
// map when the responder's epoch is ahead of ours), and on a transport
// failure mark the node dead, refresh the map from a survivor and retry
// against the new owner, until the call lands, no owner is left or the
// budget runs out.
func (c *httpClient) routedCall(ctx context.Context, routeID, method, path string, body, out any) (string, error) {
	base, err := c.ownerBase(ctx, routeID)
	if err != nil {
		return "", err
	}
	deadline := time.Now().Add(clusterRetryBudget)
	for {
		err = c.callAt(ctx, method, base, path, body, out)
		var no *notOwnerError
		var te *transportError
		switch {
		case err == nil:
			c.markAlive(base)
			return base, nil
		case errors.As(err, &no):
			c.markAlive(base)
			base = c.redirect(ctx, routeID, base, no)
		case errors.As(err, &te):
			c.markDead(base)
			c.refreshMap(ctx, "")
			next := c.ownerOf(routeID)
			if next == base {
				time.Sleep(failoverPause)
				next = c.ownerOf(routeID)
			}
			base = next
		default:
			return base, err
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		if base == "" || time.Now().After(deadline) {
			return "", err
		}
	}
}

// redirect resolves the next URL after a not_owner answer from the node at
// from: trust the responder's owner hint, and when its epoch is ahead of the
// cached map, refresh from it so the local ring catches up before the retry.
func (c *httpClient) redirect(ctx context.Context, routeID, from string, no *notOwnerError) string {
	c.cmu.Lock()
	stale := no.we.Epoch > c.cv.Epoch
	hint := c.baseLocked(wire.NodeInfo{ID: no.we.Owner, Addr: no.we.OwnerAddr})
	c.cmu.Unlock()
	if stale {
		c.refreshMap(ctx, from)
	}
	if no.we.OwnerAddr != "" && hint != from {
		return hint
	}
	base := c.ownerOf(routeID)
	if base == from {
		// The responder denies owning a venue our (and maybe its) map says it
		// owns — an epoch transition in flight. Brief pause, refreshed map.
		time.Sleep(failoverPause)
		c.refreshMap(ctx, "")
		base = c.ownerOf(routeID)
	}
	return base
}

// Tenants lists tenants across the ring: fan out to every alive node, union,
// sort.
func (c *httpClient) Tenants(ctx context.Context) ([]string, error) {
	bases := c.aliveBases()
	if len(bases) == 0 {
		if err := c.refreshMap(ctx, ""); err != nil {
			return nil, err
		}
		bases = c.aliveBases()
	}
	seen := make(map[string]bool)
	lastErr := errors.New("client: no alive node to list tenants from")
	ok := false
	for _, base := range bases {
		var list wire.TenantList
		if err := c.callAt(ctx, "GET", base, "/v1/tenants", nil, &list); err != nil {
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

// editAt posts one edit batch to the node at base. Returns the response and an
// application error (batch rejected at some prefix) — or a routing error
// (*notOwnerError / *transportError) with a nil response.
func (c *httpClient) editAt(ctx context.Context, base, id string, edits []wire.Edit) (*wire.EditResponse, error, error) {
	raw, err := json.Marshal(wire.EditRequest{Edits: edits})
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST",
		base+"/v1/tenants/"+id+"/edits", bytes.NewReader(raw))
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

// Edit routes the batch to the venue's owner, with failover reconciliation.
// The risk a cluster adds over a single server is an owner dying between
// accepting part of a batch and acknowledging it; the journal sequence
// closes that window. The client
// pins the tenant's sequence before sending; after a transport failure it
// asks the promoted follower (whose replica holds every acknowledged —
// synchronously replicated — record) for its sequence, and the difference is
// exactly how many edits of the batch survived. It resends the unaccepted
// suffix to the new owner, so the accepted-prefix contract holds across the
// reroute. Reviewer pool indices of add-reviewer edits are only reported for
// edits acknowledged directly (not reconstructed for the survived prefix).
func (c *httpClient) Edit(ctx context.Context, id string, edits ...wire.Edit) (*wire.EditResponse, error) {
	pre, known := c.knownSeq(id)
	if !known {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		pre = st.Seq
	}
	base, err := c.ownerBase(ctx, id)
	if err != nil {
		return nil, err
	}
	total := &wire.EditResponse{}
	remaining := edits
	deadline := time.Now().Add(clusterRetryBudget)
	for {
		resp, appErr, routeErr := c.editAt(ctx, base, id, remaining)
		var no *notOwnerError
		var te *transportError
		switch {
		case routeErr == nil:
			c.markAlive(base)
			total.Accepted += resp.Accepted
			total.ReviewerIndices = append(total.ReviewerIndices, resp.ReviewerIndices...)
			total.Seq = resp.Seq
			c.setSeq(id, resp.Seq)
			if appErr != nil {
				return nil, appErr // the contract drops a partial batch's response
			}
			return total, nil
		case errors.As(routeErr, &no):
			c.markAlive(base)
			base = c.redirect(ctx, id, base, no)
		case errors.As(routeErr, &te):
			// The owner died with the batch in flight. Find the survivor and
			// reconcile: its sequence minus the pre-batch sequence is the
			// accepted prefix; resend the rest.
			c.markDead(base)
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
			base = c.ownerOf(id)
		default:
			return nil, routeErr
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if base == "" || time.Now().After(deadline) {
			return nil, routeErr
		}
	}
}

// Ticket polls an async-resolve ticket. Tickets live on the node that
// issued them (any node holding the tenant answers its own tickets); when
// that node dies the token dies with it, so the client transparently
// re-issues the resolve on the current owner and keeps polling under the
// caller's original token.
func (c *httpClient) Ticket(ctx context.Context, id, token string) (*wire.TicketStatus, error) {
	st := &wire.TicketStatus{}
	ref, ok := c.ticketFor(token)
	if !ok {
		// Not issued through this client: route to the owner.
		if _, err := c.tenantCall(ctx, id, "GET", "/tickets/"+token, nil, st); err != nil {
			return nil, err
		}
		return st, nil
	}
	err := c.callAt(ctx, "GET", ref.base, "/v1/tenants/"+id+"/tickets/"+ref.token, nil, st)
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
	if te != nil {
		c.markDead(ref.base)
		c.refreshMap(ctx, "")
	}
	var tk wire.Ticket
	base, err := c.tenantCall(ctx, id, "POST", "/resolve-async", nil, &tk)
	if err != nil {
		return nil, fmt.Errorf("client: re-issuing ticket %q after node loss: %w", token, err)
	}
	c.rememberTicket(token, base, tk.Ticket)
	st = &wire.TicketStatus{}
	if err := c.callAt(ctx, "GET", base, "/v1/tenants/"+id+"/tickets/"+tk.Ticket, nil, st); err != nil {
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

func (c *httpClient) rememberTicket(token, base, remote string) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	c.tickets[token] = ticketRef{base: base, token: remote}
}

func (c *httpClient) ticketFor(token string) (ticketRef, bool) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	ref, ok := c.tickets[token]
	return ref, ok
}
