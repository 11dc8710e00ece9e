package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("venue-%d", i)
	}
	return keys
}

// TestRingDeterministic: ownership is a pure function of the node set — the
// order the nodes are listed in must not matter, since every node and every
// client builds its own ring from the shard map independently.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"})
	b := NewRing([]string{"n3", "n1", "n2"})
	for _, k := range ringKeys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q depends on node-list order: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestRingSuccessorIsFailoverTarget pins the invariant failover rests on:
// the designated follower (OwnerAndSuccessor) is exactly the node that
// becomes owner when the owner is removed from the ring. If these ever
// diverged, the node promoted by a death would not be the node holding the
// replica.
func TestRingSuccessorIsFailoverTarget(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	r := NewRing(nodes)
	for _, k := range ringKeys(1000) {
		owner, succ := r.OwnerAndSuccessor(k)
		var without []string
		for _, n := range nodes {
			if n != owner {
				without = append(without, n)
			}
		}
		if got := NewRing(without).Owner(k); got != succ {
			t.Fatalf("key %q: successor %q but owner-after-removing-%q is %q", k, succ, owner, got)
		}
	}
}

// TestRingRemovalOnlyMovesOwnedKeys: consistent hashing's point — removing a
// node must not reshuffle keys it did not own.
func TestRingRemovalOnlyMovesOwnedKeys(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4"}
	full := NewRing(nodes)
	reduced := NewRing([]string{"n1", "n2", "n3"})
	moved := 0
	for _, k := range ringKeys(2000) {
		before := full.Owner(k)
		after := reduced.Owner(k)
		if before != "n4" && after != before {
			t.Fatalf("key %q moved from %q to %q though %q stayed in the ring", k, before, after, before)
		}
		if before == "n4" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key owned by the removed node — distribution is broken")
	}
}

// TestRingDistribution: with vnodes virtual points per node the spread over
// 3 nodes should be rough but not degenerate — no node owning less than 15%
// or more than 55% of 3000 keys.
func TestRingDistribution(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	r := NewRing(nodes)
	counts := make(map[string]int)
	keys := ringKeys(3000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / float64(len(keys))
		if share < 0.15 || share > 0.55 {
			t.Fatalf("node %s owns %.1f%% of keys: %v", n, 100*share, counts)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(nil).Owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	r := NewRing([]string{"only"})
	owner, succ := r.OwnerAndSuccessor("x")
	if owner != "only" || succ != "" {
		t.Fatalf("single-node ring: owner=%q succ=%q, want only/empty", owner, succ)
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers("n2=127.0.0.1:7002, n1=127.0.0.1:7001")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].ID != "n2" || nodes[1].Addr != "127.0.0.1:7001" {
		t.Fatalf("unexpected parse: %+v", nodes)
	}
	for _, bad := range []string{"", "n1", "=addr", "n1=", "n1=a,n1=b"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}
