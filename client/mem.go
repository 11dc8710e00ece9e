package client

import (
	"context"
	"errors"
	"fmt"

	wgrap "repro"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// memClient is the embedded backend: the same tenant.Registry the daemon
// hosts, driven in-process. No HTTP, no serialization on the hot paths —
// but byte-for-byte the same wire types and the same semantics, which is
// what keeps the two backends interchangeable. Like a decoded response,
// every returned result owns its Groups: the solver's are shared with the
// published view, so they are copied out (ownGroups).
type memClient struct {
	reg *tenant.Registry
}

func openMem(dataDir string) (Client, error) {
	reg, err := tenant.NewRegistry(dataDir)
	if err != nil {
		return nil, err
	}
	return &memClient{reg: reg}, nil
}

// memErr maps registry errors onto the backend-agnostic sentinels (the HTTP
// backend arrives at the same sentinels through the wire error codes).
func memErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, tenant.ErrTenantNotFound):
		return fmt.Errorf("%w (%v)", ErrNotFound, err)
	case errors.Is(err, tenant.ErrTenantExists), errors.Is(err, wgrap.ErrJournalExists):
		return fmt.Errorf("%w (%v)", ErrTenantExists, err)
	case errors.Is(err, tenant.ErrBadTenantID):
		return fmt.Errorf("%w: %v", wgrap.ErrInvalidInstance, err)
	default:
		return err
	}
}

func (c *memClient) CreateTenant(_ context.Context, req *wire.CreateRequest) (*wire.Status, error) {
	t, err := c.reg.Create(req)
	if err != nil {
		return nil, memErr(err)
	}
	st := tenant.StatusOf(t)
	return &st, nil
}

func (c *memClient) Tenants(context.Context) ([]string, error) {
	return c.reg.List(), nil
}

func (c *memClient) Status(_ context.Context, id string) (*wire.Status, error) {
	t, err := c.reg.Get(id)
	if err != nil {
		return nil, memErr(err)
	}
	st := tenant.StatusOf(t)
	return &st, nil
}

func (c *memClient) DeleteTenant(_ context.Context, id string) error {
	return memErr(c.reg.Delete(id))
}

func (c *memClient) Edit(_ context.Context, id string, edits ...wire.Edit) (*wire.EditResponse, error) {
	t, err := c.reg.Get(id)
	if err != nil {
		return nil, memErr(err)
	}
	resp, err := tenant.ApplyEdits(t, edits)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (c *memClient) Solve(ctx context.Context, id string) (*wire.Result, error) {
	t, err := c.reg.Get(id)
	if err != nil {
		return nil, memErr(err)
	}
	res, err := t.Solver.Solve(ctx)
	if err != nil {
		return nil, err
	}
	return ownGroups(tenant.ResultOf(res)), nil
}

func (c *memClient) Resolve(ctx context.Context, id string) (*wire.Result, error) {
	t, err := c.reg.Get(id)
	if err != nil {
		return nil, memErr(err)
	}
	res, err := t.Solver.Resolve(ctx)
	if err != nil {
		return nil, err
	}
	return ownGroups(tenant.ResultOf(res)), nil
}

func (c *memClient) ResolveAsync(_ context.Context, id string) (string, error) {
	t, err := c.reg.Get(id)
	if err != nil {
		return "", memErr(err)
	}
	return c.reg.NewTicket(t, t.Solver.ResolveAsync()), nil
}

func (c *memClient) Ticket(_ context.Context, id, token string) (*wire.TicketStatus, error) {
	t, err := c.reg.Get(id)
	if err != nil {
		return nil, memErr(err)
	}
	st, ok := t.TicketStatus(token)
	if !ok {
		return nil, fmt.Errorf("%w (ticket %q)", ErrNotFound, token)
	}
	ownGroups(st.Result)
	return st, nil
}

func (c *memClient) View(_ context.Context, id string) (*wire.View, error) {
	t, err := c.reg.Get(id)
	if err != nil {
		return nil, memErr(err)
	}
	v := tenant.ViewOf(t.Solver.View())
	ownGroups(v.Result)
	return &v, nil
}

func (c *memClient) Progress(ctx context.Context, id string) (<-chan wire.Progress, func(), error) {
	t, err := c.reg.Get(id)
	if err != nil {
		return nil, nil, memErr(err)
	}
	ch, cancel := t.Subscribe()
	stop := context.AfterFunc(ctx, cancel)
	return ch, func() { stop(); cancel() }, nil
}

func (c *memClient) Close() error {
	return c.reg.Close()
}
