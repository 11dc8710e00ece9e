package tenant

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	wgrap "repro"
	"repro/internal/wire"
)

func testInstance(p, r, t int, seed int64) *wire.Instance {
	rng := rand.New(rand.NewSource(seed))
	vec := func() []float64 {
		v := make(wgrap.Vector, t)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v.Normalized()
	}
	in := &wire.Instance{GroupSize: 3}
	for i := 0; i < p; i++ {
		in.Papers = append(in.Papers, wire.Paper{ID: fmt.Sprintf("p%d", i), Topics: vec()})
	}
	for i := 0; i < r; i++ {
		in.Reviewers = append(in.Reviewers, wire.Reviewer{ID: fmt.Sprintf("r%d", i), Topics: vec()})
	}
	return in
}

func newTestTenant(t *testing.T, id string, seed int64) *Tenant {
	t.Helper()
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	tn, err := reg.Create(&wire.CreateRequest{
		ID: id, Instance: testInstance(16, 12, 5, seed), Config: wire.TenantConfig{Omega: 2, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// TestRestoreIgnoresRetiredShards: a durable tenant whose config.json still
// holds the retired "shards" field restores with every other setting it was
// stored with, and solves exactly like a fresh session with those settings.
func TestRestoreIgnoresRetiredShards(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	inst := testInstance(16, 12, 5, 4)
	want := wire.TenantConfig{Method: "sdga-sra", Omega: 2, Seed: 7, CandidateCap: 8, SnapshotEvery: 64}
	if _, err := reg.Create(&wire.CreateRequest{ID: "old", Instance: inst, Config: want}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	stored := `{"method":"sdga-sra","omega":2,"seed":7,"shards":4,"candidate_cap":8,"snapshot_every":64}`
	if err := os.WriteFile(filepath.Join(dir, "old", configFile), []byte(stored), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err = NewRegistry(dir)
	if err != nil {
		t.Fatalf("reopening a config.json with shards: %v", err)
	}
	defer reg.Close()
	tn, err := reg.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	if tn.Config != want {
		t.Fatalf("restored config %+v, want %+v", tn.Config, want)
	}
	got, err := tn.Solver.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	in, err := inst.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := wgrap.NewSolver(in, configOptions(want)...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fresh.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Assignment, ref.Assignment) {
		t.Fatal("restored tenant solves differently from a fresh session with its settings")
	}
}

// decodeView decodes an encoded view and checks its ETag against the body.
func decodeView(t *testing.T, ev *EncodedView) wire.View {
	t.Helper()
	sum := sha256.Sum256(ev.Body)
	if want := `"` + hex.EncodeToString(sum[:16]) + `"`; ev.ETag != want {
		t.Errorf("ETag %s, want %s (truncated SHA-256 of the body)", ev.ETag, want)
	}
	var v wire.View
	if err := json.Unmarshal(ev.Body, &v); err != nil {
		t.Errorf("decoding view body: %v", err)
	}
	return v
}

// TestEncodedViewOncePerPublication: reads of one publication share one
// encoding, including the version-0 view that has no result; the next
// publication gets a new encoding and ETag.
func TestEncodedViewOncePerPublication(t *testing.T) {
	tn := newTestTenant(t, "venue", 1)

	ev0, err := tn.EncodedView()
	if err != nil {
		t.Fatal(err)
	}
	if v := decodeView(t, ev0); v.Version != 0 || v.Result != nil {
		t.Fatalf("pre-solve view %+v, want version 0 without a result", v)
	}
	if bytes.Contains(ev0.Body, []byte(`"result"`)) {
		t.Fatalf("version-0 body %s carries a result key", ev0.Body)
	}
	if again, _ := tn.EncodedView(); again != ev0 {
		t.Fatal("second read of version 0 encoded again")
	}

	ctx := context.Background()
	if _, err := tn.Solver.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	ev1, err := tn.EncodedView()
	if err != nil {
		t.Fatal(err)
	}
	if ev1.ETag == ev0.ETag {
		t.Fatal("solve kept the version-0 ETag")
	}
	for i := 0; i < 3; i++ {
		if again, _ := tn.EncodedView(); again != ev1 {
			t.Fatalf("read %d of version 1 encoded again", i)
		}
	}

	if _, err := ApplyEdits(tn, []wire.Edit{{Op: wire.OpWithdraw, P: 2}}); err != nil {
		t.Fatal(err)
	}
	if again, _ := tn.EncodedView(); again != ev1 {
		t.Fatal("an unpublished edit changed the encoding")
	}
	if _, err := tn.Solver.Resolve(ctx); err != nil {
		t.Fatal(err)
	}
	ev2, err := tn.EncodedView()
	if err != nil {
		t.Fatal(err)
	}
	if ev2.ETag == ev1.ETag || bytes.Equal(ev2.Body, ev1.Body) {
		t.Fatal("resolve kept the previous encoding")
	}
	if v := decodeView(t, ev2); v.Version != 2 || !v.Warm || v.Result == nil {
		t.Fatalf("resolved view %+v, want warm version 2 with a result", v)
	}
}

// TestEncodedViewGolden pins the view body byte for byte: it must stay what
// a json.Encoder writes for ViewOf, trailing newline included, so clients
// other than this module's see no change.
func TestEncodedViewGolden(t *testing.T) {
	v := &wgrap.View{
		Version: 7,
		Warm:    true,
		Edits:   3,
		When:    time.Unix(1700000000, 123456789),
		Result: &wgrap.Result{
			Assignment:      &wgrap.Assignment{Groups: [][]int{{0, 2, 5}, {}, {1, 3, 4}}},
			Score:           1.25,
			AverageCoverage: 0.625,
			LowestCoverage:  0.5,
			Elapsed:         1500 * time.Microsecond,
			Method:          wgrap.MethodSDGA,
		},
	}
	const want = `{"version":7,"warm":true,"edits":3,"when_unix_ns":1700000000123456789,` +
		`"result":{"score":1.25,"average_coverage":0.625,"lowest_coverage":0.5,` +
		`"elapsed_ns":1500000,"method":"sdga","groups":[[0,2,5],[],[1,3,4]]}}` + "\n"
	const wantETag = `"4f9ed7b3fecdc482accfc77d8a343bae"`

	ev, err := encodeView(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(ev.Body) != want {
		t.Fatalf("body\n%s\nwant\n%s", ev.Body, want)
	}
	var perRequest bytes.Buffer
	if err := json.NewEncoder(&perRequest).Encode(ViewOf(v)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ev.Body, perRequest.Bytes()) {
		t.Fatalf("cached body differs from a per-request encoding:\n%s\n%s", ev.Body, perRequest.Bytes())
	}
	if ev.ETag != wantETag {
		t.Fatalf("ETag %s, want %s", ev.ETag, wantETag)
	}
}

// TestEncodedViewRacesResolves reads the encoding from several goroutines
// while a writer edits and publishes through ResolveAsync. Every body a
// reader sees must decode to a view that was really published, with that
// publication's assignment.
func TestEncodedViewRacesResolves(t *testing.T) {
	tn := newTestTenant(t, "venue", 2)
	ctx := context.Background()
	res, err := tn.Solver.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	published := map[uint64]*wire.Result{tn.Solver.View().Version: ResultOf(res)}

	const readers = 4
	done := make(chan struct{})
	seen := make([]map[uint64]wire.View, readers)
	var wg sync.WaitGroup
	for i := range seen {
		seen[i] = make(map[uint64]wire.View)
		wg.Add(1)
		go func(seen map[uint64]wire.View) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ev, err := tn.EncodedView()
				if err != nil {
					t.Error(err)
					return
				}
				v := decodeView(t, ev)
				seen[v.Version] = v
			}
		}(seen[i])
	}

	for round := 0; round < 20; round++ {
		op := wire.OpWithdraw
		if round%2 == 1 {
			op = wire.OpRestore
		}
		if _, err := ApplyEdits(tn, []wire.Edit{{Op: op, P: round / 2 % 16}}); err != nil {
			t.Fatal(err)
		}
		tk := tn.Solver.ResolveAsync()
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		published[tk.Version()] = ResultOf(res)
	}
	close(done)
	wg.Wait()

	n := 0
	for _, s := range seen {
		for version, v := range s {
			n++
			want, ok := published[version]
			if !ok {
				t.Fatalf("a reader saw version %d, which was never published", version)
			}
			if !reflect.DeepEqual(v.Result, want) {
				t.Fatalf("version %d decoded to %+v, published %+v", version, v.Result, want)
			}
		}
	}
	if n == 0 {
		t.Fatal("readers saw no view")
	}
}

// TestApplyEditsRejectedMiddle: a batch stops at its first rejected edit;
// the accepted prefix stays applied and the reported Seq counts it, and the
// edits after the rejection are not applied.
func TestApplyEditsRejectedMiddle(t *testing.T) {
	tn := newTestTenant(t, "venue", 3)
	active := tn.Solver.ActivePapers()

	resp, err := ApplyEdits(tn, []wire.Edit{
		{Op: wire.OpWithdraw, P: 1},
		{Op: wire.OpAddConflict, R: -1, P: 0},
		{Op: wire.OpWithdraw, P: 2},
	})
	if !errors.Is(err, wgrap.ErrInvalidEdit) {
		t.Fatalf("error %v, want ErrInvalidEdit", err)
	}
	if resp.Accepted != 1 || resp.Seq != 1 {
		t.Fatalf("response %+v, want accepted=1 seq=1", resp)
	}
	if got := tn.Solver.ActivePapers(); got != active-1 {
		t.Fatalf("%d active papers, want %d: only the prefix applies", got, active-1)
	}

	resp, err = ApplyEdits(tn, []wire.Edit{{Op: "bogus"}, {Op: wire.OpWithdraw, P: 2}})
	if !errors.Is(err, wgrap.ErrInvalidEdit) || resp.Accepted != 0 || resp.Seq != 1 {
		t.Fatalf("rejected first edit: response %+v, error %v; want accepted=0 seq=1", resp, err)
	}
	resp, err = ApplyEdits(tn, []wire.Edit{{Op: wire.OpWithdraw, P: 2}})
	if err != nil || resp.Accepted != 1 || resp.Seq != 2 {
		t.Fatalf("next batch: response %+v, error %v; want accepted=1 seq=2", resp, err)
	}
}
