package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	wgrap "repro"
	"repro/internal/cluster"
	"repro/internal/tenant"
	"repro/internal/wire"
)

func testWireInstance(p, r, t int, seed int64) *wire.Instance {
	rng := rand.New(rand.NewSource(seed))
	vec := func() []float64 {
		v := make(wgrap.Vector, t)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v.Normalized()
	}
	in := &wire.Instance{GroupSize: 3}
	for i := 0; i < p; i++ {
		in.Papers = append(in.Papers, wire.Paper{ID: fmt.Sprintf("p%d", i), Topics: vec()})
	}
	for i := 0; i < r; i++ {
		in.Reviewers = append(in.Reviewers, wire.Reviewer{ID: fmt.Sprintf("r%d", i), Topics: vec()})
	}
	return in
}

// loneHandler serves reg as a ring of one, the way a wgrap-serve started
// without -peers does.
func loneHandler(t *testing.T, reg *tenant.Registry) http.Handler {
	t.Helper()
	m, err := cluster.NewMember(reg, cluster.Config{
		Self:  "n1",
		Nodes: []wire.NodeInfo{{ID: "n1", Addr: "127.0.0.1:1", Alive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Handler(reg, m)
}

type testServer struct {
	t   *testing.T
	reg *tenant.Registry
	srv *httptest.Server
}

func newTestServer(t *testing.T, dataDir string) *testServer {
	t.Helper()
	reg, err := tenant.NewRegistry(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(loneHandler(t, reg))
	t.Cleanup(func() { srv.Close(); reg.Close() })
	return &testServer{t: t, reg: reg, srv: srv}
}

// do issues one JSON request and decodes the response into out (skipped when
// nil), asserting the expected status.
func (ts *testServer) do(method, path string, body, out any, wantStatus int) {
	ts.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			ts.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.srv.URL+path, &buf)
	if err != nil {
		ts.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		ts.t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, resp.StatusCode, wantStatus, raw.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			ts.t.Fatal(err)
		}
	}
}

func (ts *testServer) createTenant(id string, in *wire.Instance, cfg wire.TenantConfig) {
	ts.t.Helper()
	var st wire.Status
	ts.do("POST", "/v1/tenants", wire.CreateRequest{ID: id, Instance: in, Config: cfg}, &st, http.StatusCreated)
	if st.ID != id || st.Papers != len(in.Papers) {
		ts.t.Fatalf("create status mismatch: %+v", st)
	}
}

func TestServerLifecycle(t *testing.T) {
	ts := newTestServer(t, "")
	in := testWireInstance(16, 12, 6, 1)
	cfg := wire.TenantConfig{Omega: 3, Seed: 9}
	ts.createTenant("icde", in, cfg)

	// Duplicate id is refused.
	ts.do("POST", "/v1/tenants", wire.CreateRequest{ID: "icde", Instance: in}, nil, http.StatusConflict)
	// Bad id is refused.
	ts.do("POST", "/v1/tenants", wire.CreateRequest{ID: "no/slash", Instance: in}, nil, http.StatusBadRequest)

	var list wire.TenantList
	ts.do("GET", "/v1/tenants", nil, &list, http.StatusOK)
	if len(list.Tenants) != 1 || list.Tenants[0] != "icde" {
		t.Fatalf("tenant list mismatch: %+v", list)
	}

	// Cold solve over HTTP matches the embedded solver on the same instance.
	var res wire.Result
	ts.do("POST", "/v1/tenants/icde/solve", nil, &res, http.StatusOK)
	coreIn, err := in.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	workload := coreIn.MinWorkload() // a zero wire workload resolves to the minimum
	ref, err := wgrap.NewSolver(coreIn, wgrap.WithOmega(3), wgrap.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Score-refRes.Score) > 1e-9 {
		t.Fatalf("HTTP solve score %v != embedded score %v", res.Score, refRes.Score)
	}
	if len(res.Groups) != 16 {
		t.Fatalf("result groups missing: %d", len(res.Groups))
	}

	// Edits + warm resolve, against the same embedded reference.
	edits := wire.EditRequest{Edits: []wire.Edit{
		{Op: wire.OpAddConflict, R: 1, P: 2},
		{Op: wire.OpWithdraw, P: 5},
		{Op: wire.OpSetWorkload, Workload: workload + 1},
	}}
	var eresp wire.EditResponse
	ts.do("POST", "/v1/tenants/icde/edits", edits, &eresp, http.StatusOK)
	if eresp.Accepted != 3 {
		t.Fatalf("accepted %d edits, want 3", eresp.Accepted)
	}
	ts.do("POST", "/v1/tenants/icde/resolve", nil, &res, http.StatusOK)
	if err := ref.AddConflict(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := ref.WithdrawPaper(5); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetWorkload(workload + 1); err != nil {
		t.Fatal(err)
	}
	if refRes, err = ref.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Score-refRes.Score) > 1e-9 {
		t.Fatalf("HTTP warm resolve score %v != embedded %v", res.Score, refRes.Score)
	}

	// View reflects the published state, lock-free.
	var view wire.View
	ts.do("GET", "/v1/tenants/icde/view", nil, &view, http.StatusOK)
	if view.Version != 2 || !view.Warm || view.Result == nil {
		t.Fatalf("view mismatch: %+v", view)
	}
	var st wire.Status
	ts.do("GET", "/v1/tenants/icde", nil, &st, http.StatusOK)
	if st.Seq != 3 || st.Active != 15 || st.Version != 2 || st.Durable {
		t.Fatalf("status mismatch: %+v", st)
	}

	// Invalid edit: the batch reports the accepted prefix.
	bad := wire.EditRequest{Edits: []wire.Edit{
		{Op: wire.OpWithdraw, P: 1},
		{Op: wire.OpAddConflict, R: -1, P: 0},
	}}
	ts.do("POST", "/v1/tenants/icde/edits", bad, nil, http.StatusBadRequest)

	// Delete, then 404.
	ts.do("DELETE", "/v1/tenants/icde", nil, nil, http.StatusOK)
	ts.do("GET", "/v1/tenants/icde", nil, nil, http.StatusNotFound)
}

// TestServerCreateRefusesShards: the tenant config has no "shards" field
// (the solver's worker count is the process's GOMAXPROCS), so a create body
// that still sends one is refused like any other unknown field, with the
// invalid-instance code, and creates nothing.
func TestServerCreateRefusesShards(t *testing.T) {
	ts := newTestServer(t, "")
	in := testWireInstance(8, 6, 4, 5)
	body := map[string]any{"id": "sigmod", "instance": in, "config": map[string]any{"omega": 2, "shards": 4}}
	var we wire.Error
	ts.do("POST", "/v1/tenants", body, &we, http.StatusBadRequest)
	if we.Code != wire.CodeInvalidInstance || !strings.Contains(we.Message, "shards") {
		t.Fatalf("create with shards: %+v, want %s naming the field", we, wire.CodeInvalidInstance)
	}
	ts.do("GET", "/v1/tenants/sigmod", nil, nil, http.StatusNotFound)
	delete(body["config"].(map[string]any), "shards")
	ts.do("POST", "/v1/tenants", body, nil, http.StatusCreated)
}

// TestServerRefusesMalformedEdits: an edit batch that does not decode — a
// wrongly typed field, an unknown field — is refused with the invalid-edit
// code, like a batch that decodes to an unknown op, and applies nothing.
func TestServerRefusesMalformedEdits(t *testing.T) {
	ts := newTestServer(t, "")
	ts.createTenant("icde", testWireInstance(8, 6, 4, 7), wire.TenantConfig{Omega: 2})
	for _, body := range []string{
		`{"edits":[{"op":"add-conflict","r":"x","p":0}]}`,
		`{"edits":[{"op":"withdraw-paper","p":0,"paper":1}]}`,
		`{"edits":[{"op":"retract-paper","p":0}]}`,
	} {
		var we wire.Error
		ts.do("POST", "/v1/tenants/icde/edits", json.RawMessage(body), &we, http.StatusBadRequest)
		if we.Code != wire.CodeInvalidEdit {
			t.Errorf("edits %s: %+v, want %s", body, we, wire.CodeInvalidEdit)
		}
	}
	var st wire.Status
	ts.do("GET", "/v1/tenants/icde", nil, &st, http.StatusOK)
	if st.Seq != 0 || st.Active != 8 {
		t.Fatalf("status after the refused batches: %+v, want seq 0 and 8 active papers", st)
	}
}

// TestLoneNodeRefusesReplicationWrites: a ring of one owns every venue, so
// it is never a follower, and the journal-shipping writes a follower accepts
// answer not_owner. The shard map lists the one node.
func TestLoneNodeRefusesReplicationWrites(t *testing.T) {
	ts := newTestServer(t, "")
	ts.createTenant("vldb", testWireInstance(8, 6, 4, 3), wire.TenantConfig{Omega: 2})
	var sm wire.ShardMap
	ts.do("GET", "/cluster/map", nil, &sm, http.StatusOK)
	if sm.Self != "n1" || len(sm.Nodes) != 1 || sm.Nodes[0].ID != "n1" || !sm.Nodes[0].Alive {
		t.Fatalf("lone node's shard map: %+v", sm)
	}
	for _, path := range []string{"/cluster/tenants/vldb/records", "/cluster/tenants/vldb/follow"} {
		var we wire.Error
		ts.do("POST", path, cluster.RecordChunk{}, &we, http.StatusMisdirectedRequest)
		if we.Code != wire.CodeNotOwner || we.Owner != "n1" {
			t.Fatalf("POST %s: %+v, want not_owner naming n1", path, we)
		}
	}
}

func TestServerAsyncTicket(t *testing.T) {
	ts := newTestServer(t, "")
	ts.createTenant("kdd", testWireInstance(14, 10, 5, 2), wire.TenantConfig{Omega: 3})

	ts.do("POST", "/v1/tenants/kdd/edits",
		wire.EditRequest{Edits: []wire.Edit{{Op: wire.OpWithdraw, P: 3}}}, nil, http.StatusOK)
	var tk wire.Ticket
	ts.do("POST", "/v1/tenants/kdd/resolve-async", nil, &tk, http.StatusAccepted)
	if tk.Ticket == "" {
		t.Fatal("empty ticket token")
	}
	deadline := time.Now().Add(10 * time.Second)
	var st wire.TicketStatus
	for {
		ts.do("GET", "/v1/tenants/kdd/tickets/"+tk.Ticket, nil, &st, http.StatusOK)
		if st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async resolve never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Error != nil || st.Result == nil || st.Version == 0 {
		t.Fatalf("ticket status mismatch: %+v", st)
	}
	// The published view is at least the ticket's version.
	var view wire.View
	ts.do("GET", "/v1/tenants/kdd/view", nil, &view, http.StatusOK)
	if view.Version < st.Version {
		t.Fatalf("view version %d behind ticket version %d", view.Version, st.Version)
	}
	ts.do("GET", "/v1/tenants/kdd/tickets/tk-unknown", nil, nil, http.StatusNotFound)
}

// TestServerProgressSSE subscribes to the progress stream and checks that a
// solve emits at least the construction snapshot as a well-formed SSE event.
func TestServerProgressSSE(t *testing.T) {
	ts := newTestServer(t, "")
	ts.createTenant("vldb", testWireInstance(14, 10, 5, 3), wire.TenantConfig{Omega: 3})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.srv.URL+"/v1/tenants/vldb/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := make(chan wire.Progress, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var p wire.Progress
				if json.Unmarshal([]byte(data), &p) == nil {
					events <- p
				}
			}
		}
	}()

	ts.do("POST", "/v1/tenants/vldb/solve", nil, nil, http.StatusOK)
	select {
	case p := <-events:
		if p.Phase != "construct" {
			t.Fatalf("first progress phase = %q, want construct", p.Phase)
		}
		if p.Score <= 0 {
			t.Fatalf("construct snapshot score = %v", p.Score)
		}
	case <-ctx.Done():
		t.Fatal("no SSE progress event arrived for a completed solve")
	}
}

// TestServerDurableRestart is the in-process restart property behind the CI
// crash test: a registry with a data directory, edits, close, fresh registry
// over the same directory — the tenant comes back at the same Seq and its
// resolve matches the pre-restart result at 1e-9.
func TestServerDurableRestart(t *testing.T) {
	dir := t.TempDir()
	in := testWireInstance(16, 12, 6, 4)
	cfg := wire.TenantConfig{Omega: 3, Seed: 7, FsyncIntervalNS: -1}

	ts := newTestServer(t, dir)
	ts.createTenant("www", in, cfg)
	ts.do("POST", "/v1/tenants/www/edits", wire.EditRequest{Edits: []wire.Edit{
		{Op: wire.OpAddConflict, R: 2, P: 1},
		{Op: wire.OpWithdraw, P: 7},
	}}, nil, http.StatusOK)
	var before wire.Result
	ts.do("POST", "/v1/tenants/www/solve", nil, &before, http.StatusOK)
	var st wire.Status
	ts.do("GET", "/v1/tenants/www", nil, &st, http.StatusOK)
	if !st.Durable || st.Seq != 2 {
		t.Fatalf("pre-restart status: %+v", st)
	}
	ts.srv.Close()
	if err := ts.reg.Close(); err != nil {
		t.Fatal(err)
	}

	ts2 := newTestServer(t, dir)
	var st2 wire.Status
	ts2.do("GET", "/v1/tenants/www", nil, &st2, http.StatusOK)
	if st2.Seq != st.Seq || !st2.Durable {
		t.Fatalf("restored status %+v, want seq %d", st2, st.Seq)
	}
	var after wire.Result
	ts2.do("POST", "/v1/tenants/www/resolve", nil, &after, http.StatusOK)
	if math.Abs(after.Score-before.Score) > 1e-9 {
		t.Fatalf("restored resolve score %v != pre-restart %v", after.Score, before.Score)
	}
	// Re-creating a tenant whose durable state survives is refused.
	ts2.do("POST", "/v1/tenants", wire.CreateRequest{ID: "www", Instance: in}, nil, http.StatusConflict)
}

// TestServerConcurrentClients hammers one tenant from many goroutines —
// edits, async resolves, ticket polls, views, statuses — and then checks
// convergence: a final resolve answers with every accepted edit applied.
// Run under -race in CI.
func TestServerConcurrentClients(t *testing.T) {
	ts := newTestServer(t, "")
	ts.createTenant("sigmod", testWireInstance(20, 16, 6, 5), wire.TenantConfig{Omega: 3})
	ts.do("POST", "/v1/tenants/sigmod/solve", nil, nil, http.StatusOK)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch i % 3 {
				case 0:
					ts.do("POST", "/v1/tenants/sigmod/edits", wire.EditRequest{Edits: []wire.Edit{
						{Op: wire.OpAddConflict, R: (w*7 + i) % 16, P: (w*3 + i) % 20},
					}}, nil, http.StatusOK)
				case 1:
					var tk wire.Ticket
					ts.do("POST", "/v1/tenants/sigmod/resolve-async", nil, &tk, http.StatusAccepted)
					ts.do("GET", "/v1/tenants/sigmod/tickets/"+tk.Ticket, nil, nil, http.StatusOK)
				case 2:
					var view wire.View
					ts.do("GET", "/v1/tenants/sigmod/view", nil, &view, http.StatusOK)
					var st wire.Status
					ts.do("GET", "/v1/tenants/sigmod", nil, &st, http.StatusOK)
				}
			}
		}(w)
	}
	wg.Wait()

	var st wire.Status
	ts.do("GET", "/v1/tenants/sigmod", nil, &st, http.StatusOK)
	if st.Seq != workers*2 { // 2 edit rounds per worker
		t.Fatalf("Seq = %d, want %d accepted edits", st.Seq, workers*2)
	}
	var res wire.Result
	ts.do("POST", "/v1/tenants/sigmod/resolve", nil, &res, http.StatusOK)
	if res.Score <= 0 {
		t.Fatalf("post-hammer resolve score = %v", res.Score)
	}
}

// TestCleanShutdownNoGoroutineLeak is the leak gate behind the CI server
// job: a full workload — durable tenant, solves, SSE subscriber, async
// tickets — then registry close, after which the goroutine count must return
// to its baseline (the solver's worker pools and the journal flusher all
// tie their lifetime to the session).
func TestCleanShutdownNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	reg, err := tenant.NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(loneHandler(t, reg))
	ts := &testServer{t: t, reg: reg, srv: srv}
	ts.createTenant("leak", testWireInstance(14, 10, 5, 6), wire.TenantConfig{Omega: 3, FsyncIntervalNS: int64(time.Millisecond)})

	// SSE subscriber held open across a solve.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(sseCtx, "GET", srv.URL+"/v1/tenants/leak/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ts.do("POST", "/v1/tenants/leak/solve", nil, nil, http.StatusOK)
	ts.do("POST", "/v1/tenants/leak/edits",
		wire.EditRequest{Edits: []wire.Edit{{Op: wire.OpWithdraw, P: 2}}}, nil, http.StatusOK)
	var tk wire.Ticket
	ts.do("POST", "/v1/tenants/leak/resolve-async", nil, &tk, http.StatusAccepted)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st wire.TicketStatus
		ts.do("GET", "/v1/tenants/leak/tickets/"+tk.Ticket, nil, &st, http.StatusOK)
		if st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async resolve never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	sseCancel()
	resp.Body.Close()
	srv.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()

	// Goroutine teardown is asynchronous (http conn goroutines, the flusher);
	// poll until the count returns to baseline.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after clean shutdown: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerDeleteDuringAsyncSolve races DELETE against an in-flight async
// re-solve: the delete must complete cleanly, later polls of the orphaned
// ticket must answer the plain not-found sentinel (no panic, no hang), and
// the async worker goroutine must wind down instead of leaking. Both tenant
// flavors run: the in-memory solver stays usable after Close (the solve in
// flight completes into the void), the durable one refuses further solves —
// either way the HTTP surface must look identical.
func TestServerDeleteDuringAsyncSolve(t *testing.T) {
	for _, durableTenant := range []bool{false, true} {
		name := "memory"
		if durableTenant {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			dir := ""
			if durableTenant {
				dir = t.TempDir()
			}
			reg, err := tenant.NewRegistry(dir)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(loneHandler(t, reg))
			ts := &testServer{t: t, reg: reg, srv: srv}
			in := testWireInstance(40, 30, 8, 7)
			// A real refinement budget keeps the async solve in flight when the
			// delete lands.
			cfg := wire.TenantConfig{Omega: 3, Seed: 4, RefinementBudget: int64(800 * time.Millisecond)}
			ts.createTenant("race", in, cfg)

			var tk wire.Ticket
			ts.do("POST", "/v1/tenants/race/resolve-async", nil, &tk, http.StatusAccepted)
			time.Sleep(30 * time.Millisecond) // let the solve start

			ts.do("DELETE", "/v1/tenants/race", nil, nil, http.StatusOK)

			// The orphaned ticket and the tenant itself answer the clean
			// not-found sentinel.
			ts.do("GET", "/v1/tenants/race/tickets/"+tk.Ticket, nil, nil, http.StatusNotFound)
			ts.do("GET", "/v1/tenants/race", nil, nil, http.StatusNotFound)

			if durableTenant {
				// Durable state survives a delete by design: re-creating the id
				// is refused until the directory is removed out of band.
				ts.do("POST", "/v1/tenants", wire.CreateRequest{ID: "race", Instance: in}, nil, http.StatusConflict)
			} else {
				// In-memory: the id is free again immediately.
				ts.createTenant("race", in, wire.TenantConfig{Omega: 3, Seed: 5})
				ts.do("DELETE", "/v1/tenants/race", nil, nil, http.StatusOK)
			}

			srv.Close()
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			http.DefaultClient.CloseIdleConnections()

			deadline := time.Now().Add(10 * time.Second)
			for {
				if n := runtime.NumGoroutine(); n <= baseline {
					return
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					n := runtime.Stack(buf, true)
					t.Fatalf("goroutines leaked after delete-during-async-solve: baseline %d, now %d\n%s",
						baseline, runtime.NumGoroutine(), buf[:n])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// getView issues GET /v1/tenants/{id}/view with one If-None-Match line per
// entry of ifNoneMatch and returns the response with its body read.
func (ts *testServer) getView(id string, ifNoneMatch ...string) (*http.Response, []byte) {
	ts.t.Helper()
	req, err := http.NewRequest("GET", ts.srv.URL+"/v1/tenants/"+id+"/view", nil)
	if err != nil {
		ts.t.Fatal(err)
	}
	for _, v := range ifNoneMatch {
		req.Header.Add("If-None-Match", v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		ts.t.Fatal(err)
	}
	return resp, body.Bytes()
}

// perRequestView is the view body as a per-request encoding writes it.
func perRequestView(t *testing.T, reg *tenant.Registry, id string) []byte {
	t.Helper()
	tn, err := reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tenant.ViewOf(tn.Solver.View())); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerViewConditionalGet: the view route answers with an ETag and
// Cache-Control: no-cache, returns 304 with no body to an If-None-Match that
// matches (RFC 9110 weak comparison: lists, W/ tags, *), and a full 200
// once the view the tag names is no longer current.
func TestServerViewConditionalGet(t *testing.T) {
	ts := newTestServer(t, "")
	ts.createTenant("vldb", testWireInstance(16, 12, 6, 3), wire.TenantConfig{Omega: 2, Seed: 4})
	ts.do("POST", "/v1/tenants/vldb/solve", nil, nil, http.StatusOK)

	resp, body := ts.getView("vldb")
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" || resp.Header.Get("Cache-Control") != "no-cache" {
		t.Fatalf("view: status %d, ETag %q, Cache-Control %q", resp.StatusCode, etag, resp.Header.Get("Cache-Control"))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, len(body))
	}
	if want := perRequestView(t, ts.reg, "vldb"); !bytes.Equal(body, want) {
		t.Fatalf("body\n%s\ndiffers from the per-request encoding\n%s", body, want)
	}

	for _, tc := range []struct {
		name   string
		header []string
		want   int
	}{
		{"exact", []string{etag}, http.StatusNotModified},
		{"list", []string{`"x", "a,b" ,` + etag}, http.StatusNotModified},
		{"weak", []string{"W/" + etag}, http.StatusNotModified},
		{"star", []string{"*"}, http.StatusNotModified},
		{"second line", []string{`"x"`, etag}, http.StatusNotModified},
		{"other tag", []string{`"x"`}, http.StatusOK},
		{"unquoted", []string{strings.Trim(etag, `"`)}, http.StatusOK},
		{"bare W/", []string{"W/"}, http.StatusOK},
		{"unterminated", []string{`"` + strings.Trim(etag, `"`)}, http.StatusOK},
	} {
		resp, got := ts.getView("vldb", tc.header...)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s (%q): status %d, want %d", tc.name, tc.header, resp.StatusCode, tc.want)
		}
		if resp.Header.Get("ETag") != etag || resp.Header.Get("Cache-Control") != "no-cache" {
			t.Fatalf("%s: ETag %q, Cache-Control %q", tc.name, resp.Header.Get("ETag"), resp.Header.Get("Cache-Control"))
		}
		if tc.want == http.StatusNotModified && len(got) != 0 {
			t.Fatalf("%s: 304 carries a %d-byte body", tc.name, len(got))
		}
		if tc.want == http.StatusOK && !bytes.Equal(got, body) {
			t.Fatalf("%s: 200 body differs from the first read", tc.name)
		}
	}

	// A publication makes the held tag stale: full response, new tag.
	ts.do("POST", "/v1/tenants/vldb/edits", wire.EditRequest{Edits: []wire.Edit{{Op: wire.OpWithdraw, P: 4}}}, nil, http.StatusOK)
	ts.do("POST", "/v1/tenants/vldb/resolve", nil, nil, http.StatusOK)
	resp, body = ts.getView("vldb", etag)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == etag {
		t.Fatalf("stale tag after a resolve: status %d, ETag %q (was %q)", resp.StatusCode, resp.Header.Get("ETag"), etag)
	}
	if want := perRequestView(t, ts.reg, "vldb"); !bytes.Equal(body, want) {
		t.Fatalf("post-resolve body\n%s\ndiffers from the per-request encoding\n%s", body, want)
	}
}

// TestServerViewETagNamesContent: two servers whose same-id tenants sit at
// the same view version over different instances — a failover to a
// follower, a re-created tenant — must give different ETags, so a tag from
// one never earns a 304 from the other. A tag built from the version would.
func TestServerViewETagNamesContent(t *testing.T) {
	a, b := newTestServer(t, ""), newTestServer(t, "")
	a.createTenant("venue", testWireInstance(16, 12, 6, 7), wire.TenantConfig{Omega: 2})
	b.createTenant("venue", testWireInstance(16, 12, 6, 8), wire.TenantConfig{Omega: 2})
	a.do("POST", "/v1/tenants/venue/solve", nil, nil, http.StatusOK)
	b.do("POST", "/v1/tenants/venue/solve", nil, nil, http.StatusOK)

	ra, bodyA := a.getView("venue")
	rb, bodyB := b.getView("venue")
	var va, vb wire.View
	if err := errors.Join(json.Unmarshal(bodyA, &va), json.Unmarshal(bodyB, &vb)); err != nil {
		t.Fatal(err)
	}
	if va.Version != vb.Version {
		t.Fatalf("versions %d and %d, want equal", va.Version, vb.Version)
	}
	if ra.Header.Get("ETag") == rb.Header.Get("ETag") {
		t.Fatalf("different views share ETag %s", ra.Header.Get("ETag"))
	}
	if resp, _ := b.getView("venue", ra.Header.Get("ETag")); resp.StatusCode != http.StatusOK {
		t.Fatalf("the other server's tag got status %d, want 200", resp.StatusCode)
	}
}
