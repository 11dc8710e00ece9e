// Package client is the uniform front door to a wgrap solving backend: the
// same Client interface drives an in-process solver registry and a remote
// wgrap-serve daemon. Open selects the backend by URL scheme —
//
//	c, err := client.Open("mem://")                  // embedded, in-memory
//	c, err := client.Open("mem:///var/lib/wgrap")    // embedded, durable
//	c, err := client.Open("http://127.0.0.1:8080")   // remote wgrap-serve
//
// — and everything after the Open is identical: the same tenant lifecycle,
// the same wire types, the same sentinel errors (the HTTP transport maps the
// server's error codes back onto wgrap.ErrInvalidEdit and friends, so
// errors.Is works unchanged across the network). Code written against the
// embedded backend serves unmodified against a daemon, and vice versa; the
// integration suite runs one script against both and asserts identical
// results.
package client

import (
	"context"
	"errors"
	"fmt"
	"strings"

	wgrap "repro"
	"repro/internal/wire"
)

// Client drives one backend. All methods are safe for concurrent use.
// Implementations: the embedded mem:// backend (an in-process tenant
// registry) and the http:// backend (a wgrap-serve daemon).
type Client interface {
	// CreateTenant uploads an instance as a new tenant session.
	CreateTenant(ctx context.Context, req *CreateRequest) (*Status, error)
	// Tenants lists the tenant ids, sorted.
	Tenants(ctx context.Context) ([]string, error)
	// Status reports one tenant's state (sizes, edit Seq, view version).
	Status(ctx context.Context, id string) (*Status, error)
	// DeleteTenant closes a tenant session (durable state stays on disk).
	DeleteTenant(ctx context.Context, id string) error
	// Edit applies a batch of incremental edits in order. The batch is not
	// atomic: on error, the response of a partially accepted batch is lost but
	// the accepted prefix remains applied, exactly like consecutive mutator
	// calls on an embedded Solver.
	Edit(ctx context.Context, id string, edits ...Edit) (*EditResponse, error)
	// Solve runs a cold solve and blocks for the result.
	Solve(ctx context.Context, id string) (*Result, error)
	// Resolve runs a warm re-solve (drains pending edits) and blocks.
	Resolve(ctx context.Context, id string) (*Result, error)
	// ResolveAsync enqueues a coalescing background re-solve and returns a
	// ticket token for Ticket polling.
	ResolveAsync(ctx context.Context, id string) (string, error)
	// Ticket polls an async resolve; Done=false while the solve runs.
	Ticket(ctx context.Context, id, token string) (*TicketStatus, error)
	// View fetches the latest published view without blocking on any solve.
	View(ctx context.Context, id string) (*View, error)
	// Progress subscribes to the tenant's anytime progress stream (lossy for
	// slow consumers). Cancel the context or call the returned stop function
	// to unsubscribe; the channel closes on either.
	Progress(ctx context.Context, id string) (<-chan Progress, func(), error)
	// Close releases the client. For mem:// it shuts the embedded registry
	// down (flushing and closing every durable tenant); for http:// it only
	// drops idle connections — the daemon keeps running.
	Close() error
}

// Open connects to a backend by URL:
//
//	mem://            embedded in-memory registry
//	mem:///some/dir   embedded durable registry rooted at /some/dir
//	http://host:port  remote wgrap-serve daemon (https works too)
func Open(url string) (Client, error) {
	switch {
	case url == "mem:" || url == "mem://":
		return openMem("")
	case strings.HasPrefix(url, "mem://"):
		return openMem(strings.TrimPrefix(url, "mem://"))
	case strings.HasPrefix(url, "http://"), strings.HasPrefix(url, "https://"):
		return openHTTP(strings.TrimSuffix(url, "/")), nil
	default:
		return nil, fmt.Errorf("client: unsupported backend URL %q (want mem:// or http://)", url)
	}
}

// fromWireError maps a wire error envelope back onto the sentinel errors, so
// errors.Is(err, wgrap.ErrInvalidEdit) works identically on both backends.
func fromWireError(we *wire.Error) error {
	var sentinel error
	switch we.Code {
	case wire.CodeInvalidEdit:
		sentinel = wgrap.ErrInvalidEdit
	case wire.CodeConflictSaturated:
		sentinel = wgrap.ErrConflictSaturated
	case wire.CodeInfeasible:
		sentinel = wgrap.ErrInfeasible
	case wire.CodeInvalidInstance:
		sentinel = wgrap.ErrInvalidInstance
	case wire.CodeUnknownMethod:
		sentinel = wgrap.ErrUnknownMethod
	case wire.CodeTenantExists:
		sentinel = ErrTenantExists
	case wire.CodeNotFound:
		sentinel = ErrNotFound
	default:
		return errors.New(we.Message)
	}
	return fmt.Errorf("%w (%s)", sentinel, we.Message)
}

// Backend-agnostic sentinels for the tenant lifecycle; the solver sentinels
// (wgrap.ErrInvalidEdit, wgrap.ErrInfeasible, …) pass through unchanged.
var (
	// ErrNotFound reports an unknown tenant or ticket.
	ErrNotFound = errors.New("client: not found")
	// ErrTenantExists reports a create colliding with a live tenant or with
	// durable state left on disk.
	ErrTenantExists = errors.New("client: tenant already exists")
)

// cloneView deep-copies a view, so the copy shares nothing with v.
func cloneView(v *wire.View) *wire.View {
	out := *v
	if v.Result != nil {
		res := *v.Result
		out.Result = ownGroups(&res)
	}
	return &out
}

// ownGroups replaces res.Groups with a copy held in one flat backing array
// (nil and empty groups keep their form) and returns res.
func ownGroups(res *wire.Result) *wire.Result {
	if res == nil || res.Groups == nil {
		return res
	}
	n := 0
	for _, g := range res.Groups {
		n += len(g)
	}
	flat := make([]int, 0, n)
	groups := make([][]int, len(res.Groups))
	for p, g := range res.Groups {
		if g != nil {
			flat = append(flat, g...)
			groups[p] = flat[len(flat)-len(g) : len(flat) : len(flat)]
		}
	}
	res.Groups = groups
	return res
}
