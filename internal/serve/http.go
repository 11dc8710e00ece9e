// Package serve is the HTTP front of the serving stack: a thin transport
// over the transport-agnostic tenant core (internal/tenant), which owns the
// registry, tenant lifecycle and edit/solve semantics. Callers build the
// registry with tenant.NewRegistry and a cluster.Member over it, and hand
// both to Handler. The same core also backs the client package's in-process
// mem:// backend — the HTTP layer adds only encoding, routing and the
// member's ownership guards, so both fronts expose identical behaviour.
//
// Every handler is one node of a shard-aware cluster (internal/cluster); a
// lone daemon is a ring of one, which owns every venue. Write routes are
// refused with a not_owner envelope when the venue hashes to another node,
// read routes are answered from a local replica when one exists, and
// /cluster/* (shard map, journal shipping) is mounted alongside /v1/*.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	wgrap "repro"
	"repro/internal/cluster"
	"repro/internal/tenant"
	"repro/internal/wire"
)

type handler struct {
	reg     *tenant.Registry
	cluster *cluster.Member
}

// Handler builds the HTTP API over a registry. Routes (all JSON except the
// SSE stream):
//
//	GET    /v1/healthz                          liveness
//	POST   /v1/tenants                          create tenant (CreateRequest)
//	GET    /v1/tenants                          list tenant ids (this node's)
//	GET    /v1/tenants/{id}                     tenant status
//	DELETE /v1/tenants/{id}                     close + unregister tenant
//	POST   /v1/tenants/{id}/edits               apply an edit batch
//	POST   /v1/tenants/{id}/solve               cold solve (blocking)
//	POST   /v1/tenants/{id}/resolve             warm re-solve (blocking)
//	POST   /v1/tenants/{id}/resolve-async       enqueue re-solve, returns ticket
//	GET    /v1/tenants/{id}/tickets/{ticket}    poll an async resolve
//	GET    /v1/tenants/{id}/view                latest published View (lock-free,
//	                                            conditional: ETag / If-None-Match)
//	GET    /v1/tenants/{id}/result              latest Result (lock-free)
//	GET    /v1/tenants/{id}/progress            SSE stream of anytime snapshots
//
// The member m splits the tenant routes into two classes.
// Mutating routes (create, delete, edits, solve, resolve, resolve-async,
// status, progress) are owner-only: a node that does not own the venue
// answers 421 with a not_owner envelope naming the owner, and a client
// follows it. Read routes (view, result, tickets) are local-reads: any node
// holding the tenant — owner or replication follower — answers from its
// local (possibly stale-bounded) copy, which is what lets a standby serve
// reads and answer for tickets it issued. /cluster/map and the journal
// shipping endpoints are mounted alongside.
func Handler(reg *tenant.Registry, m *cluster.Member) http.Handler {
	h := &handler{reg: reg, cluster: m}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/tenants", h.handleCreate)
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, wire.TenantList{Tenants: reg.List()})
	})
	mux.HandleFunc("GET /v1/tenants/{id}", h.owned(func(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
		writeJSON(w, http.StatusOK, tenant.StatusOf(t))
	}))
	mux.HandleFunc("DELETE /v1/tenants/{id}", h.ownedID(func(w http.ResponseWriter, r *http.Request, id string) {
		if err := reg.Delete(id); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	}))
	mux.HandleFunc("POST /v1/tenants/{id}/edits", h.owned(h.handleEdits))
	mux.HandleFunc("POST /v1/tenants/{id}/solve", h.owned(func(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
		res, err := t.Solver.Solve(r.Context())
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, tenant.ResultOf(res))
	}))
	mux.HandleFunc("POST /v1/tenants/{id}/resolve", h.owned(func(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
		res, err := t.Solver.Resolve(r.Context())
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, tenant.ResultOf(res))
	}))
	mux.HandleFunc("POST /v1/tenants/{id}/resolve-async", h.owned(func(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
		token := reg.NewTicket(t, t.Solver.ResolveAsync())
		writeJSON(w, http.StatusAccepted, wire.Ticket{Ticket: token})
	}))
	mux.HandleFunc("GET /v1/tenants/{id}/tickets/{ticket}", h.local(handleTicket))
	mux.HandleFunc("GET /v1/tenants/{id}/view", h.local(handleView))
	mux.HandleFunc("GET /v1/tenants/{id}/result", h.local(func(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
		res := t.Solver.Result()
		if res == nil {
			writeErr(w, fmt.Errorf("%w: tenant has no published result yet", tenant.ErrTenantNotFound))
			return
		}
		writeJSON(w, http.StatusOK, tenant.ResultOf(res))
	}))
	mux.HandleFunc("GET /v1/tenants/{id}/progress", h.owned(handleProgress))
	mux.Handle("/cluster/", m.Routes())
	return mux
}

// handleCreate registers a new tenant. Creation is routed like any write:
// only the owner of the requested id accepts it.
func (h *handler) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req wire.CreateRequest
	if !readJSON(w, r, &req, wgrap.ErrInvalidInstance) {
		return
	}
	if req.ID != "" && !h.cluster.IsOwner(req.ID) {
		h.cluster.WriteNotOwner(w, req.ID)
		return
	}
	t, err := h.reg.Create(&req)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Stand the follower up before acknowledging the create: from the first
	// accepted edit on, replication is synchronous with the ack, and that
	// only protects anything if the replica already exists.
	h.cluster.EnsureFollower(t.ID)
	writeJSON(w, http.StatusCreated, tenant.StatusOf(t))
}

// ownedID guards a mutating route that needs only the id (delete): a
// non-owner answers not_owner instead of touching the local registry.
func (h *handler) ownedID(fn func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !h.cluster.IsOwner(id) {
			h.cluster.WriteNotOwner(w, id)
			return
		}
		fn(w, r, id)
	}
}

// owned resolves {id} on mutating routes: ownership first, then the local
// registry.
func (h *handler) owned(fn func(http.ResponseWriter, *http.Request, *tenant.Tenant)) http.HandlerFunc {
	return h.ownedID(func(w http.ResponseWriter, r *http.Request, id string) {
		t, err := h.reg.Get(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		fn(w, r, t)
	})
}

// local resolves {id} on read routes from the local registry regardless of
// ownership — a replication follower serves its stale-bounded copy. Only
// when the tenant is not local at all does a non-owner answer not_owner so
// the client retries at the owner.
func (h *handler) local(fn func(http.ResponseWriter, *http.Request, *tenant.Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		t, err := h.reg.Get(id)
		if err != nil {
			if !h.cluster.IsOwner(id) {
				h.cluster.WriteNotOwner(w, id)
				return
			}
			writeErr(w, err)
			return
		}
		fn(w, r, t)
	}
}

// handleEdits applies one edit batch in order. The batch is not atomic —
// edits before the failing one stay accepted (and journaled), exactly like a
// sequence of mutator calls on the embedded Solver; the response reports how
// many were accepted so the client can resume. The accepted records are
// pushed to the tenant's replication follower, if the ring has one, before
// the batch is acknowledged, so an acknowledged edit survives the owner's
// death.
func (h *handler) handleEdits(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	var req wire.EditRequest
	if !readJSON(w, r, &req, wgrap.ErrInvalidEdit) {
		return
	}
	resp, err := tenant.ApplyEdits(t, req.Edits)
	if resp.Accepted > 0 {
		h.cluster.NotifyWrite(t.ID)
	}
	if err != nil {
		writeEditErr(w, err, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTicket reports an async resolve's state without blocking.
func handleTicket(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	st, ok := t.TicketStatus(r.PathValue("ticket"))
	if !ok {
		writeErr(w, fmt.Errorf("%w: ticket %q", tenant.ErrTenantNotFound, r.PathValue("ticket")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleView serves the latest published view from the tenant's
// once-per-publication encoding. The response carries the encoding's ETag
// and Cache-Control: no-cache, so a client revalidates instead of trusting
// its copy; an If-None-Match naming the current ETag gets 304 Not Modified
// with no body.
func handleView(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	ev, err := t.EncodedView()
	if err != nil {
		writeErr(w, err)
		return
	}
	hdr := w.Header()
	hdr.Set("ETag", ev.ETag)
	hdr.Set("Cache-Control", "no-cache")
	if noneMatch(r.Header.Values("If-None-Match"), ev.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Content-Length", strconv.Itoa(len(ev.Body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ev.Body) // a failed write means the client left
}

// noneMatch reports whether If-None-Match field values match etag, per RFC
// 9110 §13.1.2: each value is "*" or a comma-separated list of entity tags,
// compared weakly (a W/ prefix is ignored; etag itself is strong). Parsing
// stops at the first malformed member, which then matches nothing.
func noneMatch(values []string, etag string) bool {
	for _, v := range values {
		for {
			v = strings.TrimLeft(v, " \t,")
			if v == "" {
				break
			}
			if v[0] == '*' {
				return true
			}
			v = strings.TrimPrefix(v, "W/")
			if !strings.HasPrefix(v, `"`) {
				break
			}
			end := strings.IndexByte(v[1:], '"')
			if end < 0 {
				break
			}
			if v[:end+2] == etag {
				return true
			}
			v = v[end+2:]
		}
	}
	return false
}

// handleProgress streams the tenant's anytime snapshots as Server-Sent
// Events until the client disconnects or the tenant shuts down. Events are
// metrics-only (wire.Progress); assignments travel through the view
// endpoint.
func handleProgress(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, errors.New("serve: streaming unsupported by this connection"))
		return
	}
	ch, cancel := t.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case p, open := <-ch:
			if !open {
				return
			}
			raw, err := json.Marshal(p)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", raw); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// httpStatus maps wire error codes to HTTP statuses.
func httpStatus(code string) int {
	switch code {
	case wire.CodeInvalidEdit, wire.CodeInvalidInstance, wire.CodeUnknownMethod:
		return http.StatusBadRequest
	case wire.CodeConflictSaturated, wire.CodeInfeasible, wire.CodeTenantExists:
		return http.StatusConflict
	case wire.CodeNotFound:
		return http.StatusNotFound
	case wire.CodeNotOwner:
		return http.StatusMisdirectedRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeErr(w http.ResponseWriter, err error) {
	we := tenant.ToWireError(err)
	writeJSON(w, httpStatus(we.Code), we)
}

// writeEditErr is writeErr plus the accepted-edit count and post-batch
// sequence, so a partially applied batch is reported precisely (edits are
// not transactional).
func writeEditErr(w http.ResponseWriter, err error, resp *wire.EditResponse) {
	we := tenant.ToWireError(err)
	writeJSON(w, httpStatus(we.Code), struct {
		*wire.Error
		Accepted int    `json:"accepted"`
		Seq      uint64 `json:"seq,omitempty"`
	}{we, resp.Accepted, resp.Seq})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readJSON decodes the request body into v, refusing unknown fields. A body
// that does not decode is answered with the route's sentinel: the create
// route's ErrInvalidInstance, the edit route's ErrInvalidEdit.
func readJSON(w http.ResponseWriter, r *http.Request, v any, invalid error) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, fmt.Errorf("%w: decoding request body: %v", invalid, err))
		return false
	}
	return true
}
