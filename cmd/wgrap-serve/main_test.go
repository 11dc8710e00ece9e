package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/wire"
)

// TestRunExitCodes: a membership the daemon cannot serve is a usage error,
// reported before the daemon announces itself.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"two peers without -data", []string{"-addr", "127.0.0.1:0", "-peers", "n1=127.0.0.1:1,n2=127.0.0.1:2"}},
		{"-node-id not in -peers", []string{"-addr", "127.0.0.1:0", "-node-id", "n9", "-peers", "n1=127.0.0.1:1"}},
		{"malformed -peers", []string{"-addr", "127.0.0.1:0", "-peers", "n1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2 (stderr %q)", code, stderr.String())
			}
			if strings.Contains(stdout.String(), "listening on") {
				t.Fatalf("daemon announced itself: %q", stdout.String())
			}
		})
	}
}

// assertRingOfOne checks that the daemon at url serves a shard map of
// exactly one node, itself.
func assertRingOfOne(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/cluster/map")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sm wire.ShardMap
	if err := json.NewDecoder(resp.Body).Decode(&sm); err != nil {
		t.Fatal(err)
	}
	if len(sm.Nodes) != 1 || sm.Nodes[0].ID != sm.Self || "http://"+sm.Nodes[0].Addr != url {
		t.Fatalf("shard map of a lone daemon at %s: %+v", url, sm)
	}
}

// TestLoneDaemonIsRingOfOne: a daemon started without -peers or -data is an
// in-memory ring of one, named n1, at its resolved listen address, and the
// client routes through it.
func TestLoneDaemonIsRingOfOne(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server process")
	}
	d := startDaemon(t, "-addr", "127.0.0.1:0")
	assertRingOfOne(t, d.url)
	c, err := client.Open(d.url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.CreateTenant(ctx, &wire.CreateRequest{ID: "lone", Instance: crashTestInstance()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Edit(ctx, "lone", wire.Edit{Op: wire.OpWithdraw, P: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx, "lone")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 || st.Durable {
		t.Fatalf("status on a lone in-memory daemon: %+v", st)
	}
	if err := d.terminate(t); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}
