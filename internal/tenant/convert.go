package tenant

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	wgrap "repro"
	"repro/internal/wire"
)

// ApplyEdits applies one edit batch to a tenant's session in order, shared
// by the HTTP handler, the in-process (mem://) client and the cluster
// replication ingest. It stops at the first rejected edit; the returned
// response always counts the accepted prefix (edits are not transactional —
// accepted ones stay applied and journaled, like consecutive mutator calls)
// and reports the session's edit sequence after the batch, which is what
// lets a cluster client reconcile a batch interrupted by a failover.
func ApplyEdits(t *Tenant, edits []wire.Edit) (*wire.EditResponse, error) {
	resp := &wire.EditResponse{}
	for _, e := range edits {
		var err error
		switch e.Op {
		case wire.OpAddConflict:
			err = t.Solver.AddConflict(e.R, e.P)
		case wire.OpWithdraw:
			err = t.Solver.WithdrawPaper(e.P)
		case wire.OpRestore:
			err = t.Solver.RestorePaper(e.P)
		case wire.OpAddReviewer:
			if e.Reviewer == nil {
				err = fmt.Errorf("%w: add-reviewer without a reviewer", wgrap.ErrInvalidEdit)
				break
			}
			var idx int
			idx, err = t.Solver.AddReviewer(wgrap.Reviewer{
				ID: e.Reviewer.ID, Name: e.Reviewer.Name,
				HIndex: e.Reviewer.HIndex, Topics: e.Reviewer.Topics,
			})
			if err == nil {
				resp.ReviewerIndices = append(resp.ReviewerIndices, idx)
			}
		case wire.OpSetWorkload:
			err = t.Solver.SetWorkload(e.Workload)
		default:
			err = fmt.Errorf("%w: unknown op %q", wgrap.ErrInvalidEdit, e.Op)
		}
		if err != nil {
			resp.Seq = t.Solver.Seq()
			return resp, err
		}
		resp.Accepted++
	}
	resp.Seq = t.Solver.Seq()
	return resp, nil
}

// StatusOf assembles a tenant's wire status from its lock-free read surface.
func StatusOf(t *Tenant) wire.Status {
	in := t.Solver.Instance()
	return wire.Status{
		ID:        t.ID,
		Papers:    in.NumPapers(),
		Reviewers: in.NumReviewers(),
		Active:    t.Solver.ActivePapers(),
		Seq:       t.Solver.Seq(),
		Version:   t.Solver.View().Version,
		Durable:   t.Durable,
	}
}

// ResultOf converts a solver result to its wire form.
func ResultOf(res *wgrap.Result) *wire.Result {
	if res == nil {
		return nil
	}
	return &wire.Result{
		Score:           res.Score,
		AverageCoverage: res.AverageCoverage,
		LowestCoverage:  res.LowestCoverage,
		ElapsedNS:       int64(res.Elapsed),
		Method:          string(res.Method),
		Groups:          res.Assignment.Groups,
	}
}

// ViewOf converts a published view to its wire form.
func ViewOf(v *wgrap.View) wire.View {
	return wire.View{
		Version:    v.Version,
		Warm:       v.Warm,
		Edits:      v.Edits,
		WhenUnixNS: v.When.UnixNano(),
		Result:     ResultOf(v.Result),
	}
}

// EncodedView is one published view in its HTTP wire form, built once per
// publication and shared by every read of it. Body and ETag are immutable:
// callers must not modify Body.
type EncodedView struct {
	view *wgrap.View // the publication Body encodes
	// Body is the json.Encoder output of ViewOf(view), trailing newline
	// included: byte for byte what a per-request encoding would write.
	Body []byte
	// ETag is a strong validator: the quoted hex of the first 128 bits of
	// SHA-256(Body). It names the content, not the version — a replication
	// follower numbers its views independently and a re-created tenant
	// restarts at version 0, so equal versions do not mean equal views.
	ETag string
}

// EncodedView returns the encoding of the tenant's latest published view.
// It is built on the first read after a publication, so solves nobody reads
// cost nothing. Readers racing to build it may each encode; the last store
// wins, and when that is an older view the next read only encodes again.
func (t *Tenant) EncodedView() (*EncodedView, error) {
	v := t.Solver.View()
	if e := t.encoded.Load(); e != nil && e.view == v {
		return e, nil
	}
	e, err := encodeView(v)
	if err != nil {
		return nil, err
	}
	t.encoded.Store(e)
	return e, nil
}

func encodeView(v *wgrap.View) (*EncodedView, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ViewOf(v)); err != nil {
		return nil, fmt.Errorf("tenant: encoding view %d: %w", v.Version, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return &EncodedView{view: v, Body: buf.Bytes(), ETag: `"` + hex.EncodeToString(sum[:16]) + `"`}, nil
}

// ToWireError classifies err into the wire error envelope.
func ToWireError(err error) *wire.Error {
	code := wire.CodeInternal
	switch {
	case errors.Is(err, wgrap.ErrInvalidEdit):
		code = wire.CodeInvalidEdit
	case errors.Is(err, wgrap.ErrConflictSaturated):
		code = wire.CodeConflictSaturated
	case errors.Is(err, wgrap.ErrInfeasible):
		code = wire.CodeInfeasible
	case errors.Is(err, wgrap.ErrInvalidInstance), errors.Is(err, ErrBadTenantID):
		code = wire.CodeInvalidInstance
	case errors.Is(err, wgrap.ErrUnknownMethod):
		code = wire.CodeUnknownMethod
	case errors.Is(err, ErrTenantNotFound):
		code = wire.CodeNotFound
	case errors.Is(err, ErrTenantExists), errors.Is(err, wgrap.ErrJournalExists):
		code = wire.CodeTenantExists
	}
	return &wire.Error{Code: code, Message: err.Error()}
}
