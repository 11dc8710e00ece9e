package wgrap

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cra"
	"repro/internal/durable"
	"repro/internal/wire"
)

// Durability. A Solver configured with WithJournalDir persists itself as a
// snapshot plus an append-only edit journal (internal/durable): the
// directory is initialised with a snapshot of the starting instance, and
// every accepted edit — AddConflict, WithdrawPaper, RestorePaper,
// AddReviewer, SetWorkload — is appended to the journal before it is
// applied, as a length-prefixed, checksummed record. RestoreSolver replays
// snapshot + journal back into a fresh session, so a killed or redeployed
// process resumes with the exact accepted-edit history; the next Resolve
// then matches a cold solve of the identically edited instance to 1e-9 —
// the same warm/cold parity bar the in-memory batch path meets, because
// replay IS the in-memory batch path fed from disk.
//
// Journal fsyncs are group-committed: with the default interval an accepted
// edit becomes durable within a few milliseconds, and a crash inside that
// window can lose at most the edits of the window (never corrupt earlier
// ones — a torn tail record is detected by its checksum and discarded on
// restore). WithFsyncInterval(0) closes the window: every edit is fsynced
// before its mutator returns. Compaction is automatic: after
// WithSnapshotEvery(n) journaled edits the solver rewrites the snapshot at
// the current state and resets the journal, keeping restore time bounded.
//
// This edit journal is unrelated to cmd/wgrap-journal, the paper-track CLI
// for Journal Reviewer Assignment (the single-paper problem of Definition 6)
// — "journal" there is the academic venue, not a write-ahead log.

// initDurable initialises a fresh durable directory for the solver: a
// synced snapshot of the starting instance plus an empty journal. Called
// from NewSolver before any edit can race.
func (s *Solver) initDurable(dir string, o options) error {
	in := s.sess.Instance()
	if _, ok := core.ScoreName(in.Score); !ok {
		return fmt.Errorf("%w: durable sessions require one of the named scoring functions", ErrInvalidInstance)
	}
	if durable.Exists(dir) {
		return fmt.Errorf("%w: %s", ErrJournalExists, dir)
	}
	st, err := s.durableStateLocked(0)
	if err != nil {
		return err
	}
	store, err := durable.Create(dir, st, o.fsyncInterval)
	if err != nil {
		return err
	}
	s.dstore = store
	return nil
}

// RestoreSolver rebuilds a durable Solver session from dir: it loads the
// snapshot, replays the journal records beyond it through the normal edit
// pipeline, and reattaches the journal for further appends. A torn journal
// tail (the residue of a crash between a write and its fsync) is discarded;
// everything acknowledged as synced is replayed. Options configure the
// rebuilt session exactly like NewSolver (method, seed, candidate cap, …) and
// should match the original configuration — the instance itself, its
// conflicts, withdrawals and workload all come from the durable state.
//
// The restored session has Seq equal to the pre-crash accepted-edit count
// and re-solves warm or cold exactly like the original would after the same
// batch of edits.
func RestoreSolver(dir string, opts ...Option) (*Solver, error) {
	o := resolveOptions(opts)
	o.journalDir = dir
	store, st, tail, err := durable.Open(dir, o.fsyncInterval)
	if err != nil {
		return nil, err
	}
	s, err := restoreFromState(st, tail, o)
	if err != nil {
		store.Close()
		return nil, err
	}
	s.pendMu.Lock()
	s.dstore = store
	s.pendMu.Unlock()
	return s, nil
}

// restoreFromState builds the in-memory session for a loaded durable state:
// instance from the snapshot, snapshot withdrawals re-applied, journal tail
// replayed through the public mutators (the journal only ever holds
// accepted edits, so every replay must be accepted again — a rejection
// means corrupted state and fails the restore).
func restoreFromState(st *durable.State, tail []durable.Record, o options) (*Solver, error) {
	coreIn, err := st.Instance.ToInstance()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInstance, err)
	}
	s, err := newSolver(coreIn, o)
	if err != nil {
		return nil, err
	}
	for _, p := range st.Withdrawn {
		if err := s.WithdrawPaper(p); err != nil {
			return nil, fmt.Errorf("wgrap: restoring withdrawn paper %d: %w", p, err)
		}
	}
	// Snapshot withdrawals are state, not history: reset the accepted-edit
	// counter to the snapshot's sequence so the tail replay counts up to the
	// pre-crash Seq.
	s.pendMu.Lock()
	s.accepted = st.Seq
	s.pendMu.Unlock()
	for _, rec := range tail {
		if err := s.replayEdit(rec.Edit); err != nil {
			return nil, fmt.Errorf("wgrap: replaying journal record %d: %w", rec.Seq, err)
		}
	}
	// Apply everything now and surface a replay divergence immediately
	// instead of at the first solve.
	s.mu.Lock()
	s.drainLocked()
	err = s.applyErr
	s.applyErr = nil
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("wgrap: journal replay diverged: %w", err)
	}
	return s, nil
}

// replayEdit turns one journaled record back into an edit and runs it
// through the pipeline that accepted it originally.
func (s *Solver) replayEdit(w wire.Edit) error {
	e := cra.Edit{R: w.R, P: w.P, Workload: w.Workload}
	switch w.Op {
	case wire.OpAddConflict:
		e.Op = cra.OpAddConflict
	case wire.OpWithdraw:
		e.Op = cra.OpWithdrawPaper
	case wire.OpRestore:
		e.Op = cra.OpRestorePaper
	case wire.OpAddReviewer:
		if w.Reviewer == nil {
			return fmt.Errorf("%w: add-reviewer record without a reviewer", ErrInvalidEdit)
		}
		e.Op = cra.OpAddReviewer
		e.Reviewer = Reviewer{
			ID: w.Reviewer.ID, Name: w.Reviewer.Name,
			HIndex: w.Reviewer.HIndex, Topics: w.Reviewer.Topics,
		}
	case wire.OpSetWorkload:
		e.Op = cra.OpSetWorkload
	default:
		return fmt.Errorf("%w: unknown journaled op %q", ErrInvalidEdit, w.Op)
	}
	_, err := s.enqueueEdit(e)
	return err
}

// journalLocked appends e to the edit journal (no-op for non-durable
// sessions). Caller holds pendMu, which serialises appends in acceptance
// order. A failure is sticky — see Solver.storeErr.
func (s *Solver) journalLocked(e *cra.Edit) error {
	if s.dstore == nil {
		return nil
	}
	rec := durable.Record{Seq: s.accepted + 1, Edit: journalRecord(e)}
	if err := s.dstore.Append(rec); err != nil {
		s.storeErr = err
		return err
	}
	return nil
}

// journalRecord converts an edit to its journal/wire form.
func journalRecord(e *cra.Edit) wire.Edit {
	switch e.Op {
	case cra.OpAddConflict:
		return wire.Edit{Op: wire.OpAddConflict, R: e.R, P: e.P}
	case cra.OpWithdrawPaper:
		return wire.Edit{Op: wire.OpWithdraw, P: e.P}
	case cra.OpRestorePaper:
		return wire.Edit{Op: wire.OpRestore, P: e.P}
	case cra.OpAddReviewer:
		return wire.Edit{Op: wire.OpAddReviewer, Reviewer: &wire.Reviewer{
			ID: e.Reviewer.ID, Name: e.Reviewer.Name, HIndex: e.Reviewer.HIndex, Topics: e.Reviewer.Topics,
		}}
	default:
		return wire.Edit{Op: wire.OpSetWorkload, Workload: e.Workload}
	}
}

// maybeCompactLocked rewrites the snapshot and resets the journal once
// enough records accumulated. Caller holds mu (the solve lock). Taking
// pendMu across the compaction blocks mutators for its duration, which is
// what makes the snapshot consistent: with the pending batch drained and
// enqueues excluded, the session state equals the journaled history at
// sequence s.accepted exactly.
func (s *Solver) maybeCompactLocked() {
	if s.dstore == nil || s.dstore.SinceCompact() < s.opts.snapshotEvery {
		return
	}
	s.drainLocked()
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	if len(s.pending) != 0 || s.dstore == nil || s.storeErr != nil {
		// An edit raced in between the drain and the lock (or the store
		// failed/closed); the next trigger compacts.
		return
	}
	st, err := s.durableStateLocked(s.accepted)
	if err == nil {
		err = s.dstore.Compact(st)
	}
	if err != nil {
		s.storeErr = err
	}
}

// durableStateLocked serialises the session's current state (instance,
// conflicts, withdrawals) as the snapshot covering edit sequence seq. The
// caller must hold locks that pin the session state (mu, and pendMu when
// edits could race).
func (s *Solver) durableStateLocked(seq uint64) (*durable.State, error) {
	in := s.sess.Instance()
	w, err := wire.FromInstance(in)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInstance, err)
	}
	var withdrawn []int
	for p := 0; p < in.NumPapers(); p++ {
		if !s.sess.Active(p) {
			withdrawn = append(withdrawn, p)
		}
	}
	return &durable.State{Seq: seq, Instance: w, Withdrawn: withdrawn}, nil
}

// Seq returns the number of edits the session has accepted over its
// lifetime, including edits still pending in the batch. For durable
// sessions this is the journal sequence number, so it survives a restart:
// a restored Solver reports the same Seq the original had — the version
// handle the crash-recovery CI asserts on. It never blocks on a solve in
// flight.
func (s *Solver) Seq() uint64 {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	return s.accepted
}

// Sync forces the edit journal to disk, flushing the group-commit window.
// A no-op (nil) for non-durable sessions.
func (s *Solver) Sync() error {
	s.pendMu.Lock()
	st := s.dstore
	s.pendMu.Unlock()
	if st == nil {
		return nil
	}
	return st.Sync()
}

// Close flushes and closes the edit journal. For non-durable sessions it is
// a no-op and the Solver remains usable; a durable Solver refuses further
// edits and solves after Close (they would silently escape the journal).
// Idempotent.
func (s *Solver) Close() error {
	s.checkReentry()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	s.pendMu.Lock()
	st := s.dstore
	s.dstore = nil
	if st != nil && s.storeErr == nil {
		s.storeErr = fmt.Errorf("%w: solver is closed", ErrInvalidEdit)
	}
	s.pendMu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}
