package client_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// ---- scripted fake nodes --------------------------------------------------
//
// The redirect and reconciliation paths of the cluster-aware client are
// driven here against scripted fake nodes: real HTTP servers whose answers
// are fixed by the test, so the exact interleavings (wrong owner, stale
// epoch, death mid-batch with a partially accepted batch) are deterministic
// instead of raced against real probe loops.

type scriptNode struct {
	id  string
	srv *httptest.Server
	mux *http.ServeMux

	mu  sync.Mutex
	sm  wire.ShardMap
	hit map[string]*int32
}

func newScriptNode(t *testing.T, id string) *scriptNode {
	n := &scriptNode{id: id, mux: http.NewServeMux(), hit: make(map[string]*int32)}
	n.mux.HandleFunc("GET /cluster/map", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		sm := n.sm
		n.mu.Unlock()
		writeJSON(w, http.StatusOK, sm)
	})
	n.srv = httptest.NewServer(n.mux)
	t.Cleanup(n.srv.Close)
	return n
}

func (n *scriptNode) addr() string { return n.srv.Listener.Addr().String() }

func (n *scriptNode) setMap(sm wire.ShardMap) {
	n.mu.Lock()
	n.sm = sm
	n.mu.Unlock()
}

func (n *scriptNode) counter(name string) *int32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.hit[name] == nil {
		n.hit[name] = new(int32)
	}
	return n.hit[name]
}

func (n *scriptNode) hits(name string) int32 { return atomic.LoadInt32(n.counter(name)) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func notOwnerEnvelope(owner, ownerAddr string, epoch uint64) *wire.Error {
	return &wire.Error{
		Code:      wire.CodeNotOwner,
		Message:   "scripted: not owner",
		Owner:     owner,
		OwnerAddr: ownerAddr,
		Epoch:     epoch,
	}
}

// twoFakes builds two scripted nodes and splits them into the ring owner of
// tenant id (per the epoch-1 all-alive map) and the other node, so tests can
// script "the node the client will address first" deterministically.
func twoFakes(t *testing.T, id string) (owner, other *scriptNode) {
	a := newScriptNode(t, "a")
	b := newScriptNode(t, "b")
	sm := wire.ShardMap{
		Epoch: 1,
		Nodes: []wire.NodeInfo{
			{ID: "a", Addr: a.addr(), Alive: true},
			{ID: "b", Addr: b.addr(), Alive: true},
		},
	}
	a.setMap(sm)
	b.setMap(sm)
	if cluster.NewRing([]string{"a", "b"}).Owner(id) == "a" {
		return a, b
	}
	return b, a
}

// TestClusterClientNotOwnerRedirect: the addressed node denies owning the
// venue and names the owner; the client must follow the hint and land the
// call there — one hop, no extra traffic to the denier.
func TestClusterClientNotOwnerRedirect(t *testing.T) {
	wrong, right := twoFakes(t, "venue")

	wrongHits := wrong.counter("status")
	wrong.mux.HandleFunc("GET /v1/tenants/venue", func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(wrongHits, 1)
		writeJSON(w, http.StatusMisdirectedRequest, notOwnerEnvelope(right.id, right.addr(), 1))
	})
	rightHits := right.counter("status")
	right.mux.HandleFunc("GET /v1/tenants/venue", func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(rightHits, 1)
		writeJSON(w, http.StatusOK, wire.Status{ID: "venue", Seq: 7})
	})

	c, err := client.Open("http://" + wrong.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Status(context.Background(), "venue")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 7 {
		t.Fatalf("status seq = %d, want 7 (from the hinted owner)", st.Seq)
	}
	if got := wrong.hits("status"); got != 1 {
		t.Fatalf("denier answered %d times, want 1", got)
	}
	if got := right.hits("status"); got != 1 {
		t.Fatalf("owner answered %d times, want 1", got)
	}
}

// TestClusterClientViewRevalidatesAcrossRedirect: a view read that a
// not_owner answer redirects still carries the held ETag to the owner, so
// only the first read downloads the view and the owner's 304s return it.
func TestClusterClientViewRevalidatesAcrossRedirect(t *testing.T) {
	wrong, right := twoFakes(t, "venue")
	wrong.mux.HandleFunc("GET /v1/tenants/venue/view", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusMisdirectedRequest, notOwnerEnvelope(right.id, right.addr(), 1))
	})
	const etag = `"scripted"`
	full := right.counter("full")
	right.mux.HandleFunc("GET /v1/tenants/venue/view", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		atomic.AddInt32(full, 1)
		writeJSON(w, http.StatusOK, wire.View{Version: 4, Result: &wire.Result{Score: 2.5, Groups: [][]int{{1, 2}}}})
	})

	c, err := client.Open("http://" + wrong.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		v, err := c.View(context.Background(), "venue")
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		if v.Version != 4 || v.Result == nil || v.Result.Score != 2.5 {
			t.Fatalf("view %d = %+v, want the owner's version 4", i, v)
		}
	}
	if got := right.hits("full"); got != 1 {
		t.Fatalf("owner sent the full view %d times, want 1", got)
	}
}

// TestClusterClientStaleEpochRefresh: the denial carries a newer epoch and
// no usable owner hint, so the client must refetch the shard map from the
// responder, recompute ownership under the new map, and retry — and keep
// using the refreshed map for later calls instead of bouncing off the
// denier again.
func TestClusterClientStaleEpochRefresh(t *testing.T) {
	wrong, right := twoFakes(t, "venue")
	// The epoch-2 map the denier steps down with: itself no longer alive.
	sm2 := wire.ShardMap{
		Epoch: 2,
		Nodes: []wire.NodeInfo{
			{ID: wrong.id, Addr: wrong.addr(), Alive: false},
			{ID: right.id, Addr: right.addr(), Alive: true},
		},
	}

	wrongHits := wrong.counter("status")
	wrong.mux.HandleFunc("GET /v1/tenants/venue", func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(wrongHits, 1)
		wrong.setMap(sm2) // step down: the refreshed map must come from here
		writeJSON(w, http.StatusMisdirectedRequest, notOwnerEnvelope(right.id, "", 2))
	})
	rightHits := right.counter("status")
	right.mux.HandleFunc("GET /v1/tenants/venue", func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(rightHits, 1)
		writeJSON(w, http.StatusOK, wire.Status{ID: "venue", Seq: 9})
	})

	c, err := client.Open("http://" + wrong.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		st, err := c.Status(ctx, "venue")
		if err != nil {
			t.Fatalf("status call %d: %v", i, err)
		}
		if st.Seq != 9 {
			t.Fatalf("status call %d seq = %d, want 9", i, st.Seq)
		}
	}
	if got := wrong.hits("status"); got != 1 {
		t.Fatalf("denier answered %d times, want 1 (second call must use the refreshed map)", got)
	}
	if got := right.hits("status"); got != 2 {
		t.Fatalf("new owner answered %d times, want 2", got)
	}
}

// TestClusterClientEditReconciliation: the owner dies mid-batch after
// journaling (and synchronously replicating) a prefix. The client must ask
// the promoted follower for its sequence, count the survived prefix into the
// accepted total, and resend exactly the unaccepted suffix — the
// accepted-prefix contract holds across the reroute with no edit applied
// twice and none dropped.
func TestClusterClientEditReconciliation(t *testing.T) {
	owner, follower := twoFakes(t, "venue")

	// Owner: sequence 10 pre-batch; dies (connection abort) on the edit POST.
	owner.mux.HandleFunc("GET /v1/tenants/venue", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, wire.Status{ID: "venue", Seq: 10})
	})
	owner.mux.HandleFunc("POST /v1/tenants/venue/edits", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})

	// Follower: already promoted in its own map (epoch 2), its replica holds
	// 2 of the 4 records — the prefix the dead owner accepted and replicated.
	follower.setMap(wire.ShardMap{
		Epoch: 2,
		Nodes: []wire.NodeInfo{
			{ID: owner.id, Addr: owner.addr(), Alive: false},
			{ID: follower.id, Addr: follower.addr(), Alive: true},
		},
	})
	follower.mux.HandleFunc("GET /v1/tenants/venue", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, wire.Status{ID: "venue", Seq: 12})
	})
	var followerGot []wire.Edit
	follower.mux.HandleFunc("POST /v1/tenants/venue/edits", func(w http.ResponseWriter, r *http.Request) {
		var req wire.EditRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, &wire.Error{Code: wire.CodeInvalidEdit, Message: err.Error()})
			return
		}
		follower.mu.Lock()
		followerGot = append(followerGot, req.Edits...)
		follower.mu.Unlock()
		writeJSON(w, http.StatusOK, wire.EditResponse{
			Accepted: len(req.Edits),
			Seq:      12 + uint64(len(req.Edits)),
		})
	})

	c, err := client.Open("http://" + owner.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	edits := []wire.Edit{
		{Op: wire.OpWithdraw, P: 1},
		{Op: wire.OpWithdraw, P: 2},
		{Op: wire.OpWithdraw, P: 3},
		{Op: wire.OpWithdraw, P: 4},
	}
	resp, err := c.Edit(context.Background(), "venue", edits...)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 4 {
		t.Fatalf("accepted = %d, want 4 (2 survived on the owner + 2 resent)", resp.Accepted)
	}
	if resp.Seq != 14 {
		t.Fatalf("seq = %d, want 14", resp.Seq)
	}
	follower.mu.Lock()
	got := followerGot
	follower.mu.Unlock()
	if len(got) != 2 || got[0].P != 3 || got[1].P != 4 {
		t.Fatalf("follower received %+v, want exactly the unaccepted suffix (P=3, P=4)", got)
	}
}

// ---- real in-process cluster ----------------------------------------------

type testClusterNode struct {
	id     string
	addr   string
	reg    *tenant.Registry
	member *cluster.Member
	srv    *http.Server
	ln     net.Listener
	dead   bool
}

// kill drops the node abruptly: listener and connections closed, probes
// stopped. The registry is left un-closed until test cleanup — a killed
// process does not flush anything either.
func (n *testClusterNode) kill() {
	if n.dead {
		return
	}
	n.dead = true
	n.srv.Close()
	n.member.Close()
}

// startTestCluster boots size real cluster nodes in-process: durable
// registries, cluster members with fast probe/poll intervals, and the full
// serve handler on real TCP listeners.
func startTestCluster(t *testing.T, size int) []*testClusterNode {
	t.Helper()
	nodes := make([]*testClusterNode, size)
	var infos []wire.NodeInfo
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		id := string(rune('a' + i))
		nodes[i] = &testClusterNode{id: id, addr: ln.Addr().String(), ln: ln}
		infos = append(infos, wire.NodeInfo{ID: id, Addr: nodes[i].addr, Alive: true})
	}
	for _, n := range nodes {
		reg, err := tenant.NewRegistry(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		member, err := cluster.NewMember(reg, cluster.Config{
			Self:          n.id,
			Nodes:         infos,
			ProbeInterval: 50 * time.Millisecond,
			ReplicaPoll:   50 * time.Millisecond,
			Logf:          t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.reg, n.member = reg, member
		n.srv = &http.Server{Handler: serve.Handler(reg, member)}
		go n.srv.Serve(n.ln)
		member.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.kill()
			n.reg.Close()
		}
	})
	return nodes
}

func nodeByID(nodes []*testClusterNode, id string) *testClusterNode {
	for _, n := range nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// TestClusterFailoverInProcess runs the full failover story against a real
// 3-node in-process cluster: create and edit a venue through the shard-aware
// client, wait for the journal to replicate to the ring successor, kill the
// owner without warning, and drive more edits, an orphaned async ticket, a
// re-solve and a view through the client — all must land on the promoted
// follower with the sequence intact.
func TestClusterFailoverInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node failover test")
	}
	nodes := startTestCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c, err := client.Open("http://" + nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const venue = "venue-failover"
	in := testWireInstance(24, 18, 6, 5)
	if _, err := c.CreateTenant(ctx, &wire.CreateRequest{
		ID: venue, Instance: in, Config: wire.TenantConfig{Omega: 2, Seed: 3},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Edit(ctx, venue,
		wire.Edit{Op: wire.OpWithdraw, P: 1},
		wire.Edit{Op: wire.OpWithdraw, P: 2},
		wire.Edit{Op: wire.OpAddConflict, R: 1, P: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 || resp.Seq != 3 {
		t.Fatalf("edit response %+v, want accepted=3 seq=3", resp)
	}

	ids := []string{"a", "b", "c"}
	ownerID, succID := cluster.NewRing(ids).OwnerAndSuccessor(venue)
	ownerNode, succNode := nodeByID(nodes, ownerID), nodeByID(nodes, succID)
	if ownerNode == nil || succNode == nil {
		t.Fatalf("ring roles owner=%q succ=%q not in cluster", ownerID, succID)
	}

	// Wait until the successor's replica has replayed the full journal.
	waitFor(t, 15*time.Second, "successor replica at seq 3", func() bool {
		tn, err := succNode.reg.Get(venue)
		return err == nil && tn.Solver.Seq() == 3
	})

	token, err := c.ResolveAsync(ctx, venue)
	if err != nil {
		t.Fatal(err)
	}
	// The client now holds the owner's view and ETag; the last View below
	// revalidates that tag against the survivor.
	if _, err := c.View(ctx, venue); err != nil {
		t.Fatal(err)
	}

	ownerNode.kill()

	// The orphaned ticket must still resolve: the client re-issues the solve
	// on the promoted follower under the caller's token.
	waitFor(t, 30*time.Second, "ticket done after owner death", func() bool {
		st, err := c.Ticket(ctx, venue, token)
		return err == nil && st.Done
	})

	// New edits route to the promoted follower; the sequence continues where
	// the replicated journal left off — nothing acknowledged was lost.
	resp, err = c.Edit(ctx, venue,
		wire.Edit{Op: wire.OpRestore, P: 1},
		wire.Edit{Op: wire.OpWithdraw, P: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Seq != 5 {
		t.Fatalf("post-failover edit response %+v, want accepted=2 seq=5", resp)
	}

	st, err := c.Status(ctx, venue)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 5 {
		t.Fatalf("post-failover status seq = %d, want 5", st.Seq)
	}
	res, err := c.Resolve(ctx, venue)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 {
		t.Fatalf("post-failover resolve score = %v", res.Score)
	}
	v, err := c.View(ctx, venue)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result == nil || v.Result.Score != res.Score {
		t.Fatalf("view after resolve = %+v, want result with score %v", v, res.Score)
	}
	direct, err := http.Get("http://" + succNode.addr + "/v1/tenants/" + venue + "/view")
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Body.Close()
	var survivor wire.View
	if err := json.NewDecoder(direct.Body).Decode(&survivor); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, &survivor) {
		t.Fatalf("client view after failover\n%+v\ndiffers from the survivor's\n%+v", v, &survivor)
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
