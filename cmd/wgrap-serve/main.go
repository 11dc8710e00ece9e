// Command wgrap-serve is the assignment daemon: it hosts per-venue tenants —
// each a long-lived wgrap.Solver session — behind the HTTP API of
// internal/serve (instance upload, incremental edits, cold solve, warm
// re-solve, async tickets, lock-free views, SSE progress streams).
//
// With -data the tenants are durable: each lives in its own subdirectory of
// the data directory as a snapshot plus a checksummed append-only edit
// journal, and a killed or restarted daemon replays every tenant back to its
// exact pre-crash state — same accepted-edit sequence, same re-solve result
// as the uninterrupted session (the crash-recovery CI job asserts this
// end to end, SIGKILL included).
//
// Every daemon is a node of a shard-aware cluster (internal/cluster). Without
// -peers it is a ring of one, named -node-id (default n1), at its resolved
// listen address. With -peers, venues are consistent-hashed onto the alive
// nodes, the shard map is served at /cluster/map, requests for venues owned
// elsewhere answer not_owner, and each tenant's journal is replicated to its
// ring successor, which takes ownership when the owner dies; more than one
// peer requires -data.
//
// Examples:
//
//	wgrap-serve -addr 127.0.0.1:8080                 # in-memory tenants
//	wgrap-serve -addr :8080 -data /var/lib/wgrap     # durable tenants
//	wgrap-serve -node-id n1 -data /var/lib/wgrap \
//	  -peers n1=10.0.0.1:8080,n2=10.0.0.2:8080,n3=10.0.0.3:8080
//
// Drive it with the repro/client package: client.Open("http://127.0.0.1:8080")
// speaks the same interface as the embedded client.Open("mem://").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable daemon body: it returns the exit code instead of
// exiting, so the crash-recovery test can host it in a child process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wgrap-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	data := fs.String("data", "", "data directory for durable tenants (empty: in-memory only; required with more than one peer)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	nodeID := fs.String("node-id", "n1", "this node's id in the ring")
	peers := fs.String("peers", "", "static cluster membership: id=host:port,id=host:port,… (empty: a ring of one at the listen address)")
	probeInterval := fs.Duration("probe-interval", 250*time.Millisecond, "cluster peer health-probe interval")
	replicaPoll := fs.Duration("replica-poll", 500*time.Millisecond, "cluster replication catch-up poll interval")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var nodes []wire.NodeInfo
	if *peers != "" {
		var err error
		if nodes, err = cluster.ParsePeers(*peers); err != nil {
			fmt.Fprintln(stderr, "wgrap-serve:", err)
			return 2
		}
		// Unless -addr was given explicitly, listen on this node's advertised
		// peer address so a 3-line peer list is the whole cluster config.
		explicitAddr := false
		fs.Visit(func(f *flag.Flag) { explicitAddr = explicitAddr || f.Name == "addr" })
		if !explicitAddr {
			for _, n := range nodes {
				if n.ID == *nodeID {
					*addr = n.Addr
				}
			}
		}
	}

	// Catch shutdown signals before anything is announced: a SIGTERM racing
	// the boot must drain, not kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	reg, err := tenant.NewRegistry(*data)
	if err != nil {
		fmt.Fprintln(stderr, "wgrap-serve:", err)
		return 1
	}
	if *data != "" {
		fmt.Fprintf(stdout, "wgrap-serve: restored %d durable tenant(s) from %s\n", len(reg.List()), *data)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "wgrap-serve:", err)
		return 1
	}
	if nodes == nil {
		nodes = []wire.NodeInfo{{ID: *nodeID, Addr: ln.Addr().String(), Alive: true}}
	}
	member, err := cluster.NewMember(reg, cluster.Config{
		Self:          *nodeID,
		Nodes:         nodes,
		ProbeInterval: *probeInterval,
		ReplicaPoll:   *replicaPoll,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, "wgrap-serve: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "wgrap-serve:", err)
		ln.Close()
		reg.Close()
		return 2
	}
	srv := &http.Server{Handler: serve.Handler(reg, member)}
	// The listening line is the readiness signal scripts and the CI crash
	// test wait for; it carries the resolved address so -addr :0 is usable.
	fmt.Fprintf(stdout, "wgrap-serve: listening on http://%s\n", ln.Addr())
	member.Start()
	fmt.Fprintf(stdout, "wgrap-serve: node %s of a ring of %d\n", *nodeID, len(nodes))

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "wgrap-serve: %v, draining\n", sig)
	case err := <-errc:
		fmt.Fprintln(stderr, "wgrap-serve:", err)
		member.Close()
		reg.Close()
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "wgrap-serve: shutdown:", err)
		code = 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "wgrap-serve:", err)
		code = 1
	}
	// Stop replication before closing tenants (the member reads their
	// journals), and close every tenant last: journals flush and close only
	// after the in-flight requests drained, so an acknowledged edit is never
	// dropped by a graceful shutdown.
	member.Close()
	if err := reg.Close(); err != nil {
		fmt.Fprintln(stderr, "wgrap-serve:", err)
		code = 1
	}
	fmt.Fprintln(stdout, "wgrap-serve: stopped")
	return code
}
