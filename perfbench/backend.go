package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	wgrap "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/cra"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// outcome is what one op returned: the assignment-bearing result of a
// solve, resolve or view, and the view version it belongs to when the
// response says.
type outcome struct {
	res     *wire.Result
	version uint64
	view    *wire.View // set by views
}

// backend hosts one tenant at one depth of the serving stack: the daemon
// over HTTP, the tenant registry in process, the durable wgrap.Solver, or the
// bare cra.Session. The same op stream replays against each.
type backend interface {
	create(ctx context.Context, id string, req *wire.CreateRequest) error
	do(ctx context.Context, o op) (outcome, error)
	// seq reports the tenant's accepted-edit count.
	seq(ctx context.Context) (uint64, error)
	// drop releases the tenant (durable state stays on disk).
	drop(ctx context.Context) error
}

// pollInterval is how often an async resolve's ticket is polled: the track
// replayer's default, and rare enough that the polls do not take the
// pinned daemon's core from the resolve they wait for.
const pollInterval = time.Millisecond

// clientBackend drives a tenant through the client package: http:// reaches
// the daemon, mem:///dir the same tenant registry in process.
type clientBackend struct {
	c  client.Client
	id string
}

func (b *clientBackend) create(ctx context.Context, id string, req *wire.CreateRequest) error {
	r := *req
	r.ID = id
	b.id = id
	_, err := b.c.CreateTenant(ctx, &r)
	return err
}

func (b *clientBackend) do(ctx context.Context, o op) (outcome, error) {
	switch o.kind {
	case opSolve:
		res, err := b.c.Solve(ctx, b.id)
		return outcome{res: res}, err
	case opResolve:
		res, err := b.c.Resolve(ctx, b.id)
		return outcome{res: res}, err
	case opResolveAsync:
		token, err := b.c.ResolveAsync(ctx, b.id)
		if err != nil {
			return outcome{}, err
		}
		for {
			st, err := b.c.Ticket(ctx, b.id, token)
			if err != nil {
				return outcome{}, err
			}
			if st.Done {
				if st.Error != nil {
					return outcome{}, st.Error
				}
				return outcome{res: st.Result, version: st.Version}, nil
			}
			select {
			case <-time.After(pollInterval):
			case <-ctx.Done():
				return outcome{}, ctx.Err()
			}
		}
	case opView:
		v, err := b.c.View(ctx, b.id)
		if err != nil {
			return outcome{}, err
		}
		return outcome{res: v.Result, version: v.Version, view: v}, nil
	default:
		_, err := b.c.Edit(ctx, b.id, o.edits...)
		return outcome{}, err
	}
}

func (b *clientBackend) seq(ctx context.Context) (uint64, error) {
	st, err := b.c.Status(ctx, b.id)
	if err != nil {
		return 0, err
	}
	return st.Seq, nil
}

func (b *clientBackend) drop(ctx context.Context) error { return b.c.DeleteTenant(ctx, b.id) }

// solverBackend hosts the tenant as a durable wgrap.Solver with the options
// the tenant registry derives from the same config.
type solverBackend struct {
	dir string
	s   *wgrap.Solver
}

func (b *solverBackend) create(_ context.Context, id string, req *wire.CreateRequest) error {
	in, err := req.Instance.ToInstance()
	if err != nil {
		return err
	}
	b.s, err = wgrap.NewSolver(in,
		wgrap.WithMethod(wgrap.Method(req.Config.Method)),
		wgrap.WithSeed(req.Config.Seed),
		wgrap.WithCandidateCap(req.Config.CandidateCap),
		wgrap.WithJournalDir(filepath.Join(b.dir, id)))
	return err
}

func (b *solverBackend) do(ctx context.Context, o op) (outcome, error) {
	var res *wgrap.Result
	var err error
	switch o.kind {
	case opSolve:
		res, err = b.s.Solve(ctx)
	case opResolve:
		res, err = b.s.Resolve(ctx)
	case opResolveAsync:
		tk := b.s.ResolveAsync()
		res, err = tk.Wait(ctx)
		if err == nil {
			return outcome{res: tenant.ResultOf(res), version: tk.Version()}, nil
		}
	case opView:
		v := tenant.ViewOf(b.s.View())
		return outcome{res: v.Result, version: v.Version, view: &v}, nil
	default:
		for _, e := range o.edits {
			if err := applyEdit(e, b.s.AddConflict, b.s.WithdrawPaper, b.s.RestorePaper,
				func(r core.Reviewer) error { _, err := b.s.AddReviewer(r); return err }, b.s.SetWorkload); err != nil {
				return outcome{}, err
			}
		}
		return outcome{}, nil
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{res: tenant.ResultOf(res)}, nil
}

func (b *solverBackend) seq(context.Context) (uint64, error) { return b.s.Seq(), nil }

func (b *solverBackend) drop(context.Context) error { return b.s.Close() }

// sessionBackend hosts the tenant as a bare cra.Session: the solver core
// without the concurrency wrapper, journal or views. A view costs nothing at
// this depth.
type sessionBackend struct {
	sess  *cra.Session
	edits uint64
}

func (b *sessionBackend) create(_ context.Context, _ string, req *wire.CreateRequest) error {
	in, err := req.Instance.ToInstance()
	if err != nil {
		return err
	}
	if in.Workload == 0 {
		in.Workload = in.MinWorkload()
	}
	b.sess, err = cra.NewSession(in, cra.SessionConfig{CandidateCap: req.Config.CandidateCap})
	b.edits = 0
	return err
}

func (b *sessionBackend) do(ctx context.Context, o op) (outcome, error) {
	var a *core.Assignment
	var err error
	switch o.kind {
	case opSolve:
		a, err = b.sess.Solve(ctx)
	case opResolve, opResolveAsync:
		a, err = b.sess.Resolve(ctx)
	case opView:
		return outcome{}, nil
	default:
		for _, e := range o.edits {
			if err := applyEdit(e, b.sess.AddConflict, b.sess.WithdrawPaper, b.sess.RestorePaper,
				func(r core.Reviewer) error { _, err := b.sess.AddReviewer(r); return err }, b.sess.SetWorkload); err != nil {
				return outcome{}, err
			}
			b.edits++
		}
		return outcome{}, nil
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{res: &wire.Result{Groups: a.Groups}}, nil
}

func (b *sessionBackend) seq(context.Context) (uint64, error) { return b.edits, nil }

func (b *sessionBackend) drop(context.Context) error { return nil }

// applyEdit dispatches one wire edit onto a session's mutators.
func applyEdit(e wire.Edit, conflict func(r, p int) error, withdraw, restore func(p int) error,
	addReviewer func(core.Reviewer) error, setWorkload func(int) error) error {
	switch e.Op {
	case wire.OpAddConflict:
		return conflict(e.R, e.P)
	case wire.OpWithdraw:
		return withdraw(e.P)
	case wire.OpRestore:
		return restore(e.P)
	case wire.OpAddReviewer:
		return addReviewer(core.Reviewer{ID: e.Reviewer.ID, Name: e.Reviewer.Name, HIndex: e.Reviewer.HIndex, Topics: e.Reviewer.Topics})
	case wire.OpSetWorkload:
		return setWorkload(e.Workload)
	}
	return fmt.Errorf("unknown edit op %q", e.Op)
}
