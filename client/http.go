package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// httpClient is the remote backend: a thin JSON transport over the
// wgrap-serve API. Every non-2xx response carries a wire.Error envelope that
// fromWireError maps back onto the sentinel errors, so callers cannot tell
// the backends apart by error behavior.
//
// Every wgrap-serve is a ring (a lone daemon is a ring of one), so the
// client routes every call by the epoch-stamped shard map: it computes each
// venue's owner with the same consistent hashing the servers use, follows
// not_owner redirects, refreshes the map on epoch mismatch, and fails over
// to the promoted follower when a node dies — including reconciling a
// mid-flight edit batch against the survivor's journal sequence. None of
// that shows at the Client interface.
type httpClient struct {
	base string
	hc   *http.Client

	// Routing state; see cluster.go.
	cmu     sync.Mutex
	cv      *wire.ShardMap       // nil until the first map fetch
	boot    string               // id of the node the bootstrap URL reaches
	ring    *cluster.Ring        // cv's alive nodes minus the dead marks
	dead    map[string]uint64    // node id -> epoch at which we marked it dead
	seqs    map[string]uint64    // tenant id -> last acknowledged edit seq
	tickets map[string]ticketRef // ticket token -> issuing node + remote token

	// views holds, per tenant id, the last view a 200 delivered and its
	// ETag, so View can revalidate instead of downloading again. Guarded by
	// cmu; the held views are private and only ever copied out.
	views map[string]heldView
}

// heldView is a decoded view and the validator the server sent with it.
type heldView struct {
	etag string
	view *wire.View
}

// revalidation is the out value of a conditional GET: callAt sends
// ifNoneMatch and on a 304 sets notModified; on a 200 it decodes into view
// and records the response's ETag.
type revalidation struct {
	ifNoneMatch string
	notModified bool
	etag        string
	view        *wire.View
}

func openHTTP(base string) Client {
	return &httpClient{
		base:    base,
		hc:      &http.Client{},
		dead:    make(map[string]uint64),
		seqs:    make(map[string]uint64),
		tickets: make(map[string]ticketRef),
		views:   make(map[string]heldView),
	}
}

// callAt issues one JSON request against an explicit node base URL. Failures
// to reach the node (dial, reset, death mid-response) come back as
// *transportError; a not_owner envelope comes back as *notOwnerError; other
// error envelopes map onto the sentinel errors. An out of type
// *revalidation makes the request conditional on the validator it holds.
func (c *httpClient) callAt(ctx context.Context, method, base, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rv, _ := out.(*revalidation)
	if rv != nil && rv.ifNoneMatch != "" {
		req.Header.Set("If-None-Match", rv.ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &transportError{err: err}
	}
	defer resp.Body.Close()
	if rv != nil {
		if resp.StatusCode == http.StatusNotModified && rv.ifNoneMatch != "" {
			rv.notModified = true
			return nil
		}
		rv.etag = resp.Header.Get("ETag")
		out = rv.view
	}
	if resp.StatusCode/100 != 2 {
		var we wire.Error
		if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Code == "" {
			return fmt.Errorf("client: %s %s: unexpected status %d", method, path, resp.StatusCode)
		}
		if we.Code == wire.CodeNotOwner {
			return &notOwnerError{we: &we}
		}
		return fromWireError(&we)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &transportError{err: err} // node died mid-response
	}
	return nil
}

func (c *httpClient) CreateTenant(ctx context.Context, req *wire.CreateRequest) (*wire.Status, error) {
	st := &wire.Status{}
	if _, err := c.routedCall(ctx, req.ID, "POST", "/v1/tenants", req, st); err != nil {
		return nil, err
	}
	c.setSeq(st.ID, st.Seq) // spares the first Edit a Status round trip
	return st, nil
}

func (c *httpClient) Status(ctx context.Context, id string) (*wire.Status, error) {
	st := &wire.Status{}
	if _, err := c.tenantCall(ctx, id, "GET", "", nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

func (c *httpClient) DeleteTenant(ctx context.Context, id string) error {
	_, err := c.tenantCall(ctx, id, "DELETE", "", nil, nil)
	if err == nil {
		c.forgetTenant(id)
	}
	return err
}

func (c *httpClient) Solve(ctx context.Context, id string) (*wire.Result, error) {
	res := &wire.Result{}
	if _, err := c.tenantCall(ctx, id, "POST", "/solve", nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

func (c *httpClient) Resolve(ctx context.Context, id string) (*wire.Result, error) {
	res := &wire.Result{}
	if _, err := c.tenantCall(ctx, id, "POST", "/resolve", nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

func (c *httpClient) ResolveAsync(ctx context.Context, id string) (string, error) {
	var tk wire.Ticket
	base, err := c.tenantCall(ctx, id, "POST", "/resolve-async", nil, &tk)
	if err != nil {
		return "", err
	}
	c.rememberTicket(tk.Ticket, base, tk.Ticket)
	return tk.Ticket, nil
}

// View revalidates the view held for id: the request carries its ETag, a
// 304 returns a copy of the held view, and a 200 replaces it. Every
// returned view is the caller's own.
func (c *httpClient) View(ctx context.Context, id string) (*wire.View, error) {
	c.cmu.Lock()
	held := c.views[id]
	c.cmu.Unlock()
	rv := &revalidation{ifNoneMatch: held.etag, view: &wire.View{}}
	if _, err := c.tenantCall(ctx, id, "GET", "/view", nil, rv); err != nil {
		return nil, err
	}
	if rv.notModified {
		return cloneView(held.view), nil
	}
	if rv.etag != "" {
		c.cmu.Lock()
		c.views[id] = heldView{etag: rv.etag, view: cloneView(rv.view)}
		c.cmu.Unlock()
	}
	return rv.view, nil
}

// Progress subscribes to the tenant's SSE stream. The reader goroutine
// parses "data:" lines into wire.Progress events and closes the channel when
// the stream ends (context cancelled, stop called, or server shutdown). The
// stream attaches to the venue's current owner.
func (c *httpClient) Progress(ctx context.Context, id string) (<-chan wire.Progress, func(), error) {
	base, err := c.ownerBase(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/tenants/"+id+"/progress", nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		defer cancel()
		var we wire.Error
		if err := json.NewDecoder(resp.Body).Decode(&we); err == nil && we.Code != "" {
			return nil, nil, fromWireError(&we)
		}
		return nil, nil, fmt.Errorf("client: progress stream: unexpected status %d", resp.StatusCode)
	}
	ch := make(chan wire.Progress, 64)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var p wire.Progress
			if json.Unmarshal([]byte(data), &p) != nil {
				continue
			}
			select {
			case ch <- p:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, cancel, nil
}

func (c *httpClient) Close() error {
	c.cmu.Lock()
	clear(c.views)
	c.cmu.Unlock()
	c.hc.CloseIdleConnections()
	return nil
}
