package wire

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

// testInstance is a small valid instance that sets every field the wire
// form carries: ids, titles, h-indices, conflicts and a non-default score.
func testInstance() *core.Instance {
	papers := []core.Paper{
		{ID: "p0", Title: "Coverage", Topics: core.Vector{0.6, 0.4, 0}},
		{ID: "p1", Title: "Flows", Topics: core.Vector{0, 0.25, 0.75}},
	}
	reviewers := []core.Reviewer{
		{ID: "r0", Name: "Ada", HIndex: 12, Topics: core.Vector{0.5, 0.5, 0}},
		{ID: "r1", Name: "Bo", Topics: core.Vector{0.1, 0.2, 0.7}},
		{ID: "r2", Name: "Cy", HIndex: 3, Topics: core.Vector{1, 0, 0}},
	}
	in := core.NewInstance(papers, reviewers, 2, 2)
	in.Score = core.DotProduct
	in.AddConflict(2, 1)
	in.AddConflict(0, 0)
	return in
}

// wireTrip sends in through its wire form and JSON, as a create request
// travels, and converts it back.
func wireTrip(t *testing.T, in *core.Instance) *core.Instance {
	t.Helper()
	w, err := FromInstance(in)
	if err != nil {
		t.Fatalf("FromInstance: %v", err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	got, err := back.ToInstance()
	if err != nil {
		t.Fatalf("ToInstance: %v", err)
	}
	return got
}

// conflictSet returns an instance's conflicts as a set.
func conflictSet(in *core.Instance) map[core.Conflict]bool {
	set := make(map[core.Conflict]bool)
	for _, c := range in.Conflicts() {
		set[c] = true
	}
	return set
}

// checkSameInstance fails unless got carries want's papers, reviewers,
// constraints, conflict set and score.
func checkSameInstance(t *testing.T, want, got *core.Instance) {
	t.Helper()
	if !reflect.DeepEqual(got.Papers, want.Papers) {
		t.Fatalf("papers: got %+v, want %+v", got.Papers, want.Papers)
	}
	if !reflect.DeepEqual(got.Reviewers, want.Reviewers) {
		t.Fatalf("reviewers: got %+v, want %+v", got.Reviewers, want.Reviewers)
	}
	if got.GroupSize != want.GroupSize || got.Workload != want.Workload {
		t.Fatalf("constraints: got δp=%d δr=%d, want δp=%d δr=%d", got.GroupSize, got.Workload, want.GroupSize, want.Workload)
	}
	if g, w := conflictSet(got), conflictSet(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("conflicts: got %v, want %v", g, w)
	}
	gotName, gotOK := core.ScoreName(got.Score)
	wantName, wantOK := core.ScoreName(want.Score)
	if !gotOK || !wantOK || gotName != wantName {
		t.Fatalf("score: got %q (%v), want %q (%v)", gotName, gotOK, wantName, wantOK)
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	in := testInstance()
	got := wireTrip(t, in)
	checkSameInstance(t, in, got)
	if name, _ := core.ScoreName(got.Score); name != core.ScoreDotProduct {
		t.Fatalf("score %q, want %q", name, core.ScoreDotProduct)
	}
	if len(got.Conflicts()) != 2 || !got.IsConflict(2, 1) || !got.IsConflict(0, 0) {
		t.Fatalf("conflicts %v, want (2,1) and (0,0)", got.Conflicts())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped instance invalid: %v", err)
	}
}

func TestInstanceDefaultScoreName(t *testing.T) {
	in := testInstance()
	in.Score = nil
	w, err := FromInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if w.Score != core.ScoreWeightedCoverage {
		t.Fatalf("nil score travels as %q, want %q", w.Score, core.ScoreWeightedCoverage)
	}
	w.Score = ""
	back, err := w.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	if name, _ := core.ScoreName(back.Score); name != core.ScoreWeightedCoverage {
		t.Fatalf("empty score name decodes to %q, want %q", name, core.ScoreWeightedCoverage)
	}
}

func TestFromInstanceRejectsUnnamedScore(t *testing.T) {
	in := testInstance()
	in.Score = func(g, p core.Vector) float64 { return core.DotProduct(g, p) }
	if _, err := FromInstance(in); err == nil {
		t.Fatal("an instance with a custom scoring function was serialized")
	}
}

func TestToInstanceRejectsUnknownScore(t *testing.T) {
	w, err := FromInstance(testInstance())
	if err != nil {
		t.Fatal(err)
	}
	w.Score = "coverage-v2"
	if _, err := w.ToInstance(); err == nil {
		t.Fatal("an unknown scoring function name was accepted")
	}
}

// FuzzCreateRequest feeds arbitrary JSON to the create path's decoding: the
// body decodes into a CreateRequest, and ToInstance plus Validate must never
// panic, whatever the sizes, indices or weights. An instance that validates
// must survive the wire trip — FromInstance, JSON, ToInstance — with the
// same papers, reviewers, conflict set and score.
func FuzzCreateRequest(f *testing.F) {
	w, err := FromInstance(testInstance())
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(CreateRequest{ID: "venue", Instance: w})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"id":"v","instance":{"group_size":1,"workload":1,"papers":[{"topics":[1]}],"reviewers":[{"topics":[-0]}],"conflicts":[[0,0],[0,0]]}}`))
	f.Add([]byte(`{"instance":{"group_size":-1,"workload":9223372036854775807,"papers":[{"topics":[]}],"reviewers":[],"conflicts":[[-1,7]]}}`))
	f.Add([]byte(`{"instance":{"score":"nope","papers":null}}`))
	f.Add([]byte(`{"id":"only"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req CreateRequest
		if json.Unmarshal(data, &req) != nil || req.Instance == nil {
			return
		}
		in, err := req.Instance.ToInstance()
		if err != nil || in.Validate() != nil {
			return
		}
		checkSameInstance(t, in, wireTrip(t, in))
	})
}
