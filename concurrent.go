package wgrap

import (
	"context"
	"runtime"
	"time"

	"repro/internal/cra"
)

// View is one published, immutable solver state: the result of a completed
// Solve/Resolve plus its provenance. Views are swapped atomically — View()
// and Result() never take the solve lock and never block on a re-solve in
// flight; a reader always sees the latest complete version while the next
// one is computed. Everything reachable through a View (the Result, its
// Assignment) is a private copy the solver never touches again; readers must
// treat it as read-only but may hold it indefinitely.
type View struct {
	// Version increases by one per publication, starting at 0 for the
	// pre-solve view (whose Result is nil). Monotonic: a reader polling
	// View() can detect a new solve by comparing versions.
	Version uint64
	// Result of the solve that produced the view; nil only on version 0.
	Result *Result
	// Warm reports whether a warm Resolve (rather than a cold Solve)
	// produced the view.
	Warm bool
	// Edits is how many coalesced edits the producing solve drained from the
	// pending batch (0 for a confirmation of an unchanged instance).
	Edits int
	// When is the publication time.
	When time.Time
}

// Ticket tracks one ResolveAsync request. The zero Ticket is invalid; they
// are created by ResolveAsync only. Done closes after the request's solve
// completed and its View was published, so a waiter that then calls View()
// observes Version() or newer.
type Ticket struct {
	done    chan struct{}
	res     *Result
	err     error
	version uint64
}

// Done returns a channel closed once the solve has completed (successfully
// or not) and, on success, the new View is published.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the solve completes or ctx is cancelled, returning the
// solve's result. Cancelling ctx abandons only this wait — the solve keeps
// running and publishes normally.
func (t *Ticket) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Version returns the published View version the solve produced. Valid only
// after Done; 0 while in flight or when the solve failed.
func (t *Ticket) Version() uint64 {
	select {
	case <-t.done:
		return t.version
	default:
		return 0
	}
}

func (t *Ticket) complete(res *Result, err error, version uint64) {
	t.res, t.err = res, err
	if err == nil {
		t.version = version
	}
	close(t.done)
}

// enqueueEdit judges e by the mirror, journals it when the session is
// durable, queues it, and — when no solve holds the lock — immediately
// drains the batch into the session, so the uncontended path behaves exactly
// like the pre-concurrent solver. It returns the new reviewer's index for
// cra.OpAddReviewer and -1 otherwise. Callback-safe: from a progress
// callback the TryLock fails (the solve owns the lock) and the edit simply
// stays pending for the solve that follows.
func (s *Solver) enqueueEdit(e cra.Edit) (int, error) {
	s.pendMu.Lock()
	if err := s.acceptLocked(&e); err != nil {
		s.pendMu.Unlock()
		return -1, err
	}
	idx := -1
	if e.Op == cra.OpAddReviewer {
		idx = s.mirror.Reviewers() - 1 // Apply advanced the mirror
	}
	s.pendMu.Unlock()
	if s.mu.TryLock() {
		s.drainLocked()
		s.maybeCompactLocked()
		s.mu.Unlock()
	}
	return idx, nil
}

// acceptLocked runs the accept pipeline of one edit under pendMu: mirror
// Check, journal append (durable sessions), mirror Apply, enqueue. The
// mirror is a cra.EditState advanced at enqueue time instead of apply time,
// so an edit made while a Resolve is in flight gets, synchronously, the
// verdict the session's own rule set will give it, without touching the
// session (which the running solve owns). Checking before the append and
// applying after it means a failed append rejects the edit with the mirror
// untouched. An edit is accepted — and therefore counted by Seq and visible
// to replay — exactly when this returns nil.
func (s *Solver) acceptLocked(e *cra.Edit) error {
	if s.storeErr != nil {
		return s.storeErr
	}
	if err := s.mirror.Check(e); err != nil {
		return wrapErr(err)
	}
	if err := s.journalLocked(e); err != nil {
		return err
	}
	s.mirror.Apply(e)
	s.accepted++
	s.pending = append(s.pending, *e)
	return nil
}

// drainLocked applies the pending batch to the session in enqueue order.
// Caller holds mu. The mirror already accepted every edit by the session's
// own rules, so the session applications cannot fail; a failure would mean
// mirror and session diverged — a bug — so it is kept and surfaced by the
// next solve rather than dropped, and the mirror is copied from the session
// again.
func (s *Solver) drainLocked() {
	s.pendMu.Lock()
	edits := s.pending
	s.pending = nil
	s.pendMu.Unlock()
	if len(edits) == 0 {
		return
	}
	for _, e := range edits {
		if _, err := s.sess.Apply(e); err != nil && s.applyErr == nil {
			s.applyErr = wrapErr(err)
			s.pendMu.Lock()
			s.mirror = s.sess.EditState()
			s.pendMu.Unlock()
		}
	}
	s.editsSince += len(edits)
}

// publishLocked swaps in a new View for a completed solve. Caller holds mu.
func (s *Solver) publishLocked(res *Result, warm bool) {
	v := &View{
		Version: s.version.Add(1),
		Result:  res,
		Warm:    warm,
		Edits:   s.editsSince,
		When:    time.Now(),
	}
	s.editsSince = 0
	s.view.Store(v)
}

// View returns the latest published solver state without taking the solve
// lock: it never blocks, not even while a Solve/Resolve/ResolveAsync is
// running. Before the first successful solve it returns the version-0 view
// (nil Result).
func (s *Solver) View() *View { return s.view.Load() }

// Result returns the Result of the latest published View (nil before the
// first successful solve). Like View, it never blocks on a solve in flight.
func (s *Solver) Result() *Result { return s.view.Load().Result }

// Progress returns the most recent anytime snapshot of the running (or last)
// solve — the construction result, then each refinement improvement — or nil
// before the first snapshot. It never blocks: mid-solve state is readable at
// any time while the full solve keeps running.
func (s *Solver) Progress() *Snapshot { return s.live.Load() }

// ResolveAsync requests a re-solve of the instance including every edit
// pending at the time the solve starts, without blocking the caller. Edits
// and ResolveAsync calls made while a solve is in flight coalesce: the next
// solve drains them all as one warm re-solve (the warm/cold parity guarantee
// of Resolve applies unchanged), publishes one new View, and completes every
// ticket that requested it with the same Result. Ordering guarantees: edits
// apply in enqueue order; an edit accepted before ResolveAsync returns is
// included in the ticket's solve or an earlier one; the ticket completes
// only after its View is published, so a waiter that calls View() after Wait
// sees Version() or newer.
func (s *Solver) ResolveAsync() *Ticket {
	tk := &Ticket{done: make(chan struct{})}
	s.pendMu.Lock()
	s.tickets = append(s.tickets, tk)
	spawn := !s.asyncOn
	s.asyncOn = true
	s.pendMu.Unlock()
	if spawn {
		go s.asyncLoop()
	}
	return tk
}

// asyncLoop is the single background worker that serves ResolveAsync
// tickets: it repeatedly takes the solve lock, steals the queued tickets,
// runs one solve that drains everything pending, publishes, and completes
// the stolen tickets. It exits when a round finds no tickets; the next
// ResolveAsync spawns a fresh worker (pendMu serialises the handoff, so no
// ticket is ever stranded).
func (s *Solver) asyncLoop() {
	for {
		s.mu.Lock()
		s.pendMu.Lock()
		tickets := s.tickets
		s.tickets = nil
		if len(tickets) == 0 {
			s.asyncOn = false
			s.pendMu.Unlock()
			s.mu.Unlock()
			return
		}
		s.pendMu.Unlock()
		s.solveGID.Store(curGID())
		res, err := s.run(context.Background(), !s.solved)
		s.solveGID.Store(0)
		var version uint64
		if v := s.view.Load(); v != nil {
			version = v.Version
		}
		s.mu.Unlock()
		for _, tk := range tickets {
			tk.complete(res, err, version)
		}
	}
}

// checkReentry panics when the calling goroutine is the one running the
// in-flight solve — i.e. a progress callback called back into a blocking
// Solver method, which would deadlock on the solve lock. The pre-solve load
// keeps the common path at one atomic read; the stack parse only runs while
// a solve is actually in flight.
func (s *Solver) checkReentry() {
	if gid := s.solveGID.Load(); gid != 0 && gid == curGID() {
		panic("wgrap: Solve/Resolve must not be called from a progress callback (it would deadlock); " +
			"use View, Progress, the edit mutators, or ResolveAsync instead — all are callback-safe")
	}
}

// curGID returns the calling goroutine's id, parsed from the "goroutine N"
// header of its stack trace (the runtime exposes no cheaper portable way).
func curGID() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	id := int64(0)
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
