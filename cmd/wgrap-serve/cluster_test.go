package main

import (
	"context"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/track"
)

// freeLoopbackAddrs reserves n distinct loopback host:port addresses by
// binding and immediately releasing listeners. Cluster peers must know each
// other's addresses before any process starts, so :0 self-assignment (the
// single-node tests' trick) is not available here.
func freeLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestClusterFailover is the scale-out acceptance property: a real 3-node
// cluster of wgrap-serve processes replays the committed deadline-rush track
// through the shard-aware client, the node owning the replay's venue is
// SIGKILLed mid-track, and the replay must nevertheless run to completion —
// with the exact accepted-edit sequence and (after an explicit re-solve on
// the promoted follower) the same objective at 1e-9 as an embedded mem://
// replay of the identical track. Failover is journal replay: whatever the
// dead owner acknowledged was synchronously replicated, so nothing
// acknowledged may be missing and nothing may be applied twice.
func TestClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a 3-node server cluster and replays a paper-scale track")
	}
	const trackPath = "../../testdata/tracks/deadline-rush-db08.json"
	const tenantID = "rush-cluster"
	tr, err := track.ReadFile(trackPath)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	addrs := freeLoopbackAddrs(t, 3)
	ids := []string{"a", "b", "c"}
	var peerList []string
	for i, id := range ids {
		peerList = append(peerList, id+"="+addrs[i])
	}
	peers := strings.Join(peerList, ",")
	daemons := make(map[string]*daemon, len(ids))
	for _, id := range ids {
		// Each node listens on its advertised peer address.
		daemons[id] = startDaemon(t, "-node-id", id, "-peers", peers, "-data", t.TempDir())
	}

	ownerID, succID := cluster.NewRing(ids).OwnerAndSuccessor(tenantID)
	t.Logf("venue %s: owner %s, designated follower %s", tenantID, ownerID, succID)

	// The assassin: a second shard-aware client polls the venue's sequence
	// and SIGKILLs the owner once the replay is well into the edit storm —
	// past follower bootstrap, with plenty of track left to replay through
	// the promoted follower.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		pc, err := client.Open(daemons[succID].url)
		if err != nil {
			t.Errorf("assassin client: %v", err)
			return
		}
		defer pc.Close()
		for ctx.Err() == nil {
			st, err := pc.Status(ctx, tenantID)
			if err == nil && st.Seq >= 100 {
				t.Logf("SIGKILL owner %s at seq %d", ownerID, st.Seq)
				daemons[ownerID].kill()
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Bootstrap against a non-owner on purpose: routing must not depend on
	// which node the client first talks to.
	c, err := client.Open(daemons[succID].url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := track.Replay(ctx, c, tr, track.ReplayOptions{
		TenantID:   tenantID,
		KeepTenant: true, // the post-replay parity re-solve needs the tenant
		Backend:    "cluster",
		Log:        logWriter{t},
	})
	if err != nil {
		t.Fatalf("cluster replay did not survive the owner kill: %v", err)
	}
	<-killed
	clusterRes, err := c.Resolve(ctx, tenantID)
	if err != nil {
		t.Fatalf("post-replay resolve on the promoted follower: %v", err)
	}

	// Reference: the identical track on the embedded backend.
	mem, err := client.Open("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	memRep, err := track.Replay(ctx, mem, tr, track.ReplayOptions{
		TenantID: tenantID, KeepTenant: true, Backend: "mem",
	})
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := mem.Resolve(ctx, tenantID)
	if err != nil {
		t.Fatal(err)
	}

	if rep.FinalSeq != memRep.FinalSeq {
		t.Fatalf("cluster replay final seq = %d, mem replay = %d: an acknowledged edit was lost or doubled across the failover",
			rep.FinalSeq, memRep.FinalSeq)
	}
	if rep.EditsAccepted != memRep.EditsAccepted || rep.EditsRejected != memRep.EditsRejected {
		t.Fatalf("cluster accepted/rejected = %d/%d, mem = %d/%d",
			rep.EditsAccepted, rep.EditsRejected, memRep.EditsAccepted, memRep.EditsRejected)
	}
	if math.Abs(clusterRes.Score-memRes.Score) > 1e-9 {
		t.Fatalf("post-failover objective %v != embedded replay objective %v", clusterRes.Score, memRes.Score)
	}
	t.Logf("replay survived failover: %d ops, final seq %d, objective %v (parity at 1e-9)",
		rep.Ops, rep.FinalSeq, clusterRes.Score)

	// The survivors shut down cleanly.
	for _, id := range ids {
		if id == ownerID {
			continue
		}
		if err := daemons[id].terminate(t); err != nil {
			t.Fatalf("node %s graceful shutdown: %v", id, err)
		}
	}
}

// logWriter adapts t.Logf to the replay's phase-marker log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
