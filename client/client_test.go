package client_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	wgrap "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// loneHandler serves reg as a ring of one, the way a wgrap-serve started
// without -peers does. The node advertises an address where nothing listens,
// so a client that dialed the advertised address instead of the URL it was
// opened with would fail.
func loneHandler(t *testing.T, reg *tenant.Registry) http.Handler {
	t.Helper()
	m, err := cluster.NewMember(reg, cluster.Config{
		Self:  "n1",
		Nodes: []wire.NodeInfo{{ID: "n1", Addr: "127.0.0.1:1", Alive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return serve.Handler(reg, m)
}

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

// scriptOutcome is everything the duality script observes through a Client.
type scriptOutcome struct {
	coldScore   float64
	warmScore   float64
	asyncScore  float64
	seq         uint64
	version     uint64
	active      int
	reviewerIdx int
	progressed  bool
	editErr     error
	missingErr  error
}

// runScript drives the full tenant lifecycle through c. It is THE duality
// check: the same function runs against mem:// and http:// backends and the
// caller asserts identical outcomes.
func runScript(t *testing.T, c client.Client) scriptOutcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out scriptOutcome

	in := testWireInstance(18, 14, 6, 42)
	st, err := c.CreateTenant(ctx, &wire.CreateRequest{
		ID: "venue", Instance: in, Config: wire.TenantConfig{Omega: 3, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Papers != 18 || st.Reviewers != 14 {
		t.Fatalf("create status: %+v", st)
	}
	ids, err := c.Tenants(ctx)
	if err != nil || len(ids) != 1 || ids[0] != "venue" {
		t.Fatalf("tenant list %v (%v)", ids, err)
	}

	// Progress subscription before the solve: both backends must deliver at
	// least the construction snapshot.
	progress, stopProgress, err := c.Progress(ctx, "venue")
	if err != nil {
		t.Fatal(err)
	}
	defer stopProgress()

	res, err := c.Solve(ctx, "venue")
	if err != nil {
		t.Fatal(err)
	}
	out.coldScore = res.Score
	scribble(ctx, t, c, "venue", res.Groups, "Solve")

	select {
	case p, ok := <-progress:
		out.progressed = ok && p.Phase == "construct" && p.Score > 0
	case <-time.After(10 * time.Second):
	}

	// Edit batch: conflict, withdrawal, a new reviewer.
	topics := make(wgrap.Vector, 6)
	for i := range topics {
		topics[i] = 1
	}
	eresp, err := c.Edit(ctx, "venue",
		wire.Edit{Op: wire.OpAddConflict, R: 2, P: 3},
		wire.Edit{Op: wire.OpWithdraw, P: 1},
		wire.Edit{Op: wire.OpAddReviewer, Reviewer: &wire.Reviewer{ID: "late", Topics: topics.Normalized()}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if eresp.Accepted != 3 || len(eresp.ReviewerIndices) != 1 {
		t.Fatalf("edit response: %+v", eresp)
	}
	out.reviewerIdx = eresp.ReviewerIndices[0]

	res, err = c.Resolve(ctx, "venue")
	if err != nil {
		t.Fatal(err)
	}
	out.warmScore = res.Score
	scribble(ctx, t, c, "venue", res.Groups, "Resolve")

	// Async resolve after one more edit; poll the ticket to completion.
	if _, err := c.Edit(ctx, "venue", wire.Edit{Op: wire.OpRestore, P: 1}); err != nil {
		t.Fatal(err)
	}
	token, err := c.ResolveAsync(ctx, "venue")
	if err != nil {
		t.Fatal(err)
	}
	for {
		ts, err := c.Ticket(ctx, "venue", token)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Done {
			if ts.Error != nil || ts.Result == nil {
				t.Fatalf("ticket failed: %+v", ts)
			}
			out.asyncScore = ts.Result.Score
			scribble(ctx, t, c, "venue", ts.Result.Groups, "Ticket")
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	v, err := c.View(ctx, "venue")
	if err != nil {
		t.Fatal(err)
	}
	out.version = v.Version
	scribble(ctx, t, c, "venue", v.Result.Groups, "View")
	st, err = c.Status(ctx, "venue")
	if err != nil {
		t.Fatal(err)
	}
	out.seq, out.active = st.Seq, st.Active

	// Error surface: both backends reject the same edit with the same
	// sentinel, and miss the same unknown tenant.
	_, out.editErr = c.Edit(ctx, "venue", wire.Edit{Op: wire.OpAddConflict, R: -1, P: 0})
	_, out.missingErr = c.Status(ctx, "ghost")

	if err := c.DeleteTenant(ctx, "venue"); err != nil {
		t.Fatal(err)
	}
	return out
}

// scribble overwrites every reviewer index in groups, which a caller owns
// once a Client returned them, and fails when the tenant's view changes with
// them: a backend that hands out the published view's slices, or a view it
// keeps for revalidation, would let one caller corrupt every later read.
func scribble(ctx context.Context, t *testing.T, c client.Client, id string, groups [][]int, what string) {
	t.Helper()
	before := viewGroups(ctx, t, c, id)
	for _, g := range groups {
		for i := range g {
			g[i] = -1
		}
	}
	if after := viewGroups(ctx, t, c, id); !reflect.DeepEqual(after, before) {
		t.Fatalf("editing the groups %s returned changed the view:\nbefore %v\nafter  %v", what, before, after)
	}
}

// viewGroups reads the tenant's view and returns a copy of its groups.
func viewGroups(ctx context.Context, t *testing.T, c client.Client, id string) [][]int {
	t.Helper()
	v, err := c.View(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result == nil {
		t.Fatalf("view %d has no result", v.Version)
	}
	out := make([][]int, len(v.Result.Groups))
	for p, g := range v.Result.Groups {
		out[p] = slices.Clone(g)
	}
	return out
}

// TestClientDuality is the embedded↔remote acceptance test: the identical
// client script runs against a mem:// backend and an http:// backend over a
// real loopback server, and every observable — scores (to 1e-9), sequence
// numbers, view versions, reviewer indices, error classification — matches.
func TestClientDuality(t *testing.T) {
	mem, err := client.Open("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	memOut := runScript(t, mem)

	reg, err := tenant.NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(loneHandler(t, reg))
	defer srv.Close()
	remote, err := client.Open(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	httpOut := runScript(t, remote)

	if math.Abs(memOut.coldScore-httpOut.coldScore) > 1e-9 ||
		math.Abs(memOut.warmScore-httpOut.warmScore) > 1e-9 ||
		math.Abs(memOut.asyncScore-httpOut.asyncScore) > 1e-9 {
		t.Fatalf("backend scores diverge: mem %+v, http %+v", memOut, httpOut)
	}
	if memOut.seq != httpOut.seq || memOut.version != httpOut.version ||
		memOut.active != httpOut.active || memOut.reviewerIdx != httpOut.reviewerIdx {
		t.Fatalf("backend state diverges: mem %+v, http %+v", memOut, httpOut)
	}
	if !memOut.progressed || !httpOut.progressed {
		t.Fatalf("progress stream missing: mem %v, http %v", memOut.progressed, httpOut.progressed)
	}
	for _, o := range []scriptOutcome{memOut, httpOut} {
		if !errors.Is(o.editErr, wgrap.ErrInvalidEdit) {
			t.Fatalf("bad edit error: %v", o.editErr)
		}
		if !errors.Is(o.missingErr, client.ErrNotFound) {
			t.Fatalf("missing tenant error: %v", o.missingErr)
		}
	}
}

func TestOpenRejectsUnknownScheme(t *testing.T) {
	if _, err := client.Open("ftp://x"); err == nil {
		t.Fatal("ftp:// must be rejected")
	}
}

// TestMemDurable exercises the durable embedded backend: edits survive a
// close/reopen of the same mem:///dir URL.
func TestMemDurable(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c, err := client.Open("mem://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	in := testWireInstance(10, 8, 4, 7)
	if _, err := c.CreateTenant(ctx, &wire.CreateRequest{
		ID: "www", Instance: in, Config: wire.TenantConfig{Omega: 3, FsyncIntervalNS: -1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Edit(ctx, "www", wire.Edit{Op: wire.OpWithdraw, P: 2}); err != nil {
		t.Fatal(err)
	}
	before, err := c.Solve(ctx, "www")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := client.Open("mem://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err := c2.Status(ctx, "www")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 || !st.Durable || st.Active != 9 {
		t.Fatalf("restored status: %+v", st)
	}
	after, err := c2.Resolve(ctx, "www")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after.Score-before.Score) > 1e-9 {
		t.Fatalf("restored score %v != pre-close %v", after.Score, before.Score)
	}
	// Creating over surviving durable state is refused with the shared
	// sentinel.
	if _, err := c2.CreateTenant(ctx, &wire.CreateRequest{ID: "www", Instance: in}); !errors.Is(err, client.ErrTenantExists) {
		t.Fatalf("create over durable state: %v", err)
	}
}

// TestViewRevalidationConcurrent reads views through one http:// client from
// several goroutines while a writer edits and resolves. A reader's versions
// never go back, each version shows the assignment its resolve returned, and
// every reader overwrites the groups it gets, which the race detector
// reports if two callers were handed the same slices.
func TestViewRevalidationConcurrent(t *testing.T) {
	reg, err := tenant.NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(loneHandler(t, reg))
	defer srv.Close()
	c, err := client.Open(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := c.CreateTenant(ctx, &wire.CreateRequest{
		ID: "venue", Instance: testWireInstance(18, 14, 6, 9), Config: wire.TenantConfig{Omega: 2, Seed: 5},
	}); err != nil {
		t.Fatal(err)
	}
	published := map[uint64][][]int{}
	record := func(res *wire.Result) {
		st, err := c.Status(ctx, "venue") // only this goroutine publishes
		if err != nil {
			t.Fatal(err)
		}
		published[st.Version] = res.Groups
	}
	res, err := c.Solve(ctx, "venue")
	if err != nil {
		t.Fatal(err)
	}
	record(res)

	const readers = 4
	done := make(chan struct{})
	seen := make([]map[uint64][][]int, readers)
	var wg sync.WaitGroup
	for i := range seen {
		seen[i] = map[uint64][][]int{}
		wg.Add(1)
		go func(seen map[uint64][][]int) {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := c.View(ctx, "venue")
				if err != nil {
					t.Error(err)
					return
				}
				if v.Version < last || v.Result == nil {
					t.Errorf("view version %d (result %v) after version %d", v.Version, v.Result != nil, last)
					return
				}
				last = v.Version
				if _, ok := seen[v.Version]; !ok {
					groups := make([][]int, len(v.Result.Groups))
					for p, g := range v.Result.Groups {
						groups[p] = slices.Clone(g)
					}
					seen[v.Version] = groups
				}
				for _, g := range v.Result.Groups {
					for i := range g {
						g[i] = -1
					}
				}
			}
		}(seen[i])
	}

	for round := 0; round < 12; round++ {
		op := wire.OpWithdraw
		if round%2 == 1 {
			op = wire.OpRestore
		}
		if _, err := c.Edit(ctx, "venue", wire.Edit{Op: op, P: round / 2}); err != nil {
			t.Fatal(err)
		}
		if res, err = c.Resolve(ctx, "venue"); err != nil {
			t.Fatal(err)
		}
		record(res)
	}
	close(done)
	wg.Wait()

	for _, s := range seen {
		for version, groups := range s {
			if want, ok := published[version]; !ok || !reflect.DeepEqual(groups, want) {
				t.Fatalf("version %d read as %v, published %v (%v)", version, groups, want, ok)
			}
		}
	}
	final := viewGroups(ctx, t, c, "venue")
	if !reflect.DeepEqual(final, res.Groups) {
		t.Fatalf("final view %v, last resolve %v", final, res.Groups)
	}
}

// TestClientOutlivesServerRestart: a long-lived client keeps working across a
// restart of its whole ring. After a failed call the client has marked the
// lone node dead, so the next call must refetch the map (which lifts the
// mark) instead of failing without trying anything.
func TestClientOutlivesServerRestart(t *testing.T) {
	reg, err := tenant.NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	h := loneHandler(t, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)

	c, err := client.Open("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.CreateTenant(ctx, &wire.CreateRequest{
		ID: "v", Instance: testWireInstance(10, 8, 4, 3), Config: wire.TenantConfig{Omega: 2, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	t0 := time.Now()
	if _, err := c.Status(ctx, "v"); err == nil {
		t.Fatal("status against a stopped server succeeded")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("a call to a stopped lone server took %v to fail", d)
	}

	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv = &http.Server{Handler: h}
	go srv.Serve(ln)
	defer srv.Close()
	if _, err := c.Status(ctx, "v"); err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	resp, err := c.Edit(ctx, "v", wire.Edit{Op: wire.OpWithdraw, P: 1})
	if err != nil {
		t.Fatalf("edit after restart: %v", err)
	}
	if resp.Accepted != 1 || resp.Seq != 1 {
		t.Fatalf("edit after restart: %+v", resp)
	}
}

// TestFirstEditSendsOneRequest: CreateTenant's response carries the tenant's
// edit sequence, so the first Edit needs no Status round trip first.
func TestFirstEditSendsOneRequest(t *testing.T) {
	reg, err := tenant.NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	h := loneHandler(t, reg)
	var mu sync.Mutex
	var reqs []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs = append(reqs, r.Method+" "+r.URL.Path)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := client.Open(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, &wire.CreateRequest{
		ID: "v", Instance: testWireInstance(10, 8, 4, 3), Config: wire.TenantConfig{Omega: 2},
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	reqs = nil
	mu.Unlock()
	if _, err := c.Edit(ctx, "v", wire.Edit{Op: wire.OpWithdraw, P: 1}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"POST /v1/tenants/v/edits"}; !reflect.DeepEqual(reqs, want) {
		t.Fatalf("first edit sent %q, want %q", reqs, want)
	}
}
