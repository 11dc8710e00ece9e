package wgrap

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
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

// editKind discriminates the pending-batch operations.
type editKind uint8

const (
	editConflict editKind = iota
	editWithdraw
	editRestore
	editReviewer
	editWorkload
)

// pendingEdit is one accepted-but-not-yet-applied session edit.
type pendingEdit struct {
	kind     editKind
	r, p     int
	rev      Reviewer
	workload int
}

// editMirror replicates exactly the state the session's mutators validate
// against, advanced at enqueue time instead of apply time. It is what lets
// an edit made while a Resolve is in flight return the same error — or the
// same acceptance — it would get from the session itself, synchronously,
// without touching the session (which the running solve owns). Guarded by
// Solver.pendMu.
type editMirror struct {
	papers    int
	reviewers int
	topics    int
	groupSize int
	workload  int
	activeN   int
	withdrawn []bool
	conflictN []int
	conflicts map[int64]struct{}
}

func newEditMirror(in *core.Instance) editMirror {
	P := in.NumPapers()
	m := editMirror{
		papers:    P,
		reviewers: in.NumReviewers(),
		topics:    in.NumTopics(),
		groupSize: in.GroupSize,
		workload:  in.Workload,
		activeN:   P,
		withdrawn: make([]bool, P),
		conflictN: make([]int, P),
		conflicts: make(map[int64]struct{}),
	}
	for _, c := range in.Conflicts() {
		m.conflicts[m.key(c.Reviewer, c.Paper)] = struct{}{}
		m.conflictN[c.Paper]++
	}
	return m
}

func (m *editMirror) key(r, p int) int64 { return int64(r)*int64(m.papers) + int64(p) }

// check validates op against the mirror without mutating it, so the edit
// journal can persist the record between acceptance and apply — a journal
// write failure then rejects the edit with mirror and session untouched.
// Idempotent no-ops (a duplicate conflict, withdrawing a withdrawn paper)
// are accepted like the session accepts them. The errors are the same
// internal sentinels the session returns, pre-wrapping.
func (m *editMirror) check(op *pendingEdit) error {
	switch op.kind {
	case editConflict:
		if op.r < 0 || op.r >= m.reviewers || op.p < 0 || op.p >= m.papers {
			return fmt.Errorf("%w: conflict (%d,%d) out of range", ErrInvalidEdit, op.r, op.p)
		}
		if _, dup := m.conflicts[m.key(op.r, op.p)]; dup {
			return nil
		}
		if !m.withdrawn[op.p] && m.reviewers-m.conflictN[op.p]-1 < m.groupSize {
			return fmt.Errorf("%w (paper %d)", cra.ErrConflictSaturated, op.p)
		}
	case editWithdraw:
		if op.p < 0 || op.p >= m.papers {
			return fmt.Errorf("%w: paper %d out of range", ErrInvalidEdit, op.p)
		}
	case editRestore:
		if op.p < 0 || op.p >= m.papers {
			return fmt.Errorf("%w: paper %d out of range", ErrInvalidEdit, op.p)
		}
		if !m.withdrawn[op.p] {
			return nil
		}
		if m.reviewers-m.conflictN[op.p] < m.groupSize {
			return fmt.Errorf("%w (paper %d)", cra.ErrConflictSaturated, op.p)
		}
		if m.reviewers*m.workload < (m.activeN+1)*m.groupSize {
			return cra.ErrInsufficientCapacity
		}
	case editReviewer:
		if d := op.rev.Topics.Dim(); d != m.topics {
			return fmt.Errorf("%w: cra: reviewer has %d topics, want %d", ErrInvalidEdit, d, m.topics)
		}
		if k := op.rev.Topics.NonFinite(); k >= 0 {
			return fmt.Errorf("%w: cra: reviewer topic %d weight %v is not finite", ErrInvalidEdit, k, op.rev.Topics[k])
		}
	case editWorkload:
		if op.workload <= 0 {
			return fmt.Errorf("%w: workload δr must be positive, got %d", ErrInvalidEdit, op.workload)
		}
		if m.reviewers*op.workload < m.activeN*m.groupSize {
			return cra.ErrInsufficientCapacity
		}
	}
	return nil
}

// apply advances the mirror as the session will when the checked op is
// applied. Infallible: the op passed check against this exact mirror state.
func (m *editMirror) apply(op *pendingEdit) {
	switch op.kind {
	case editConflict:
		if _, dup := m.conflicts[m.key(op.r, op.p)]; !dup {
			m.conflicts[m.key(op.r, op.p)] = struct{}{}
			m.conflictN[op.p]++
		}
	case editWithdraw:
		if !m.withdrawn[op.p] {
			m.withdrawn[op.p] = true
			m.activeN--
		}
	case editRestore:
		if m.withdrawn[op.p] {
			m.withdrawn[op.p] = false
			m.activeN++
		}
	case editReviewer:
		m.reviewers++
	case editWorkload:
		m.workload = op.workload
	}
}

// enqueueEdit validates op against the mirror, journals it when the session
// is durable, queues it, and — when no solve holds the lock — immediately
// drains the batch into the session, so the uncontended path behaves exactly
// like the pre-concurrent solver. Callback-safe: from a progress callback
// the TryLock fails (the solve owns the lock) and the edit simply stays
// pending for the solve that follows.
func (s *Solver) enqueueEdit(op pendingEdit) error {
	s.pendMu.Lock()
	if err := s.acceptLocked(&op); err != nil {
		s.pendMu.Unlock()
		return err
	}
	s.pendMu.Unlock()
	if s.mu.TryLock() {
		s.drainLocked()
		s.maybeCompactLocked()
		s.mu.Unlock()
	}
	return nil
}

// acceptLocked runs the accept pipeline of one edit under pendMu: mirror
// check, journal append (durable sessions), mirror apply, enqueue. An edit
// is accepted — and therefore counted by Seq and visible to replay — exactly
// when this returns nil.
func (s *Solver) acceptLocked(op *pendingEdit) error {
	if s.storeErr != nil {
		return s.storeErr
	}
	if err := s.mirror.check(op); err != nil {
		return wrapErr(err)
	}
	if err := s.journalLocked(op); err != nil {
		return err
	}
	s.mirror.apply(op)
	s.accepted++
	s.pending = append(s.pending, *op)
	return nil
}

// drainLocked applies the pending batch to the session in enqueue order.
// Caller holds mu. The mirror already accepted every op, so the session
// applications cannot fail; a failure would mean mirror and session
// diverged — a bug — so it is kept and surfaced by the next solve rather
// than dropped, and the mirror is rebuilt from the session.
func (s *Solver) drainLocked() {
	s.pendMu.Lock()
	ops := s.pending
	s.pending = nil
	s.pendMu.Unlock()
	if len(ops) == 0 {
		return
	}
	for i := range ops {
		op := &ops[i]
		var err error
		switch op.kind {
		case editConflict:
			err = s.sess.AddConflict(op.r, op.p)
		case editWithdraw:
			err = s.sess.WithdrawPaper(op.p)
		case editRestore:
			err = s.sess.RestorePaper(op.p)
		case editReviewer:
			_, err = s.sess.AddReviewer(op.rev)
		case editWorkload:
			err = s.sess.SetWorkload(op.workload)
		}
		if err != nil && s.applyErr == nil {
			s.applyErr = wrapErr(err)
			s.pendMu.Lock()
			s.mirror = newEditMirror(s.sess.Instance())
			for p := 0; p < s.mirror.papers; p++ {
				if !s.sess.Active(p) {
					s.mirror.withdrawn[p] = true
					s.mirror.activeN--
				}
			}
			s.pendMu.Unlock()
		}
	}
	s.edited = true
	s.editsSince += len(ops)
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
