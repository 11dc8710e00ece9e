package track_test

import (
	"context"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/track"
	"repro/internal/wire"
)

func trackConfig() wire.TenantConfig {
	return wire.TenantConfig{Method: "sdga", Seed: 1}
}

// replayOn opens a backend, replays the track, and returns the report.
func replayOn(t *testing.T, backend string, tr *track.Track) *track.Report {
	t.Helper()
	c, err := client.Open(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := track.Replay(context.Background(), c, tr, track.ReplayOptions{Backend: backend})
	if err != nil {
		t.Fatalf("replay on %s: %v", backend, err)
	}
	return rep
}

// liveServer starts an in-process wgrap-serve and returns its base URL — the
// same serve.Handler over a ring of one that a lone wgrap-serve mounts, so
// http:// replays here exercise the full wire path and the client's routing.
func liveServer(t *testing.T) string {
	t.Helper()
	reg, err := tenant.NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.NewMember(reg, cluster.Config{
		Self:  "n1",
		Nodes: []wire.NodeInfo{{ID: "n1", Addr: "127.0.0.1:1", Alive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.Handler(reg, m))
	t.Cleanup(srv.Close)
	return srv.URL
}

// assertParity is THE track parity check: two replays of the same track must
// agree on the accepted-edit sequence exactly and on the objective to 1e-9,
// whatever backend each ran against.
func assertParity(t *testing.T, a, b *track.Report) {
	t.Helper()
	if a.FinalSeq != b.FinalSeq {
		t.Errorf("final seq diverged: %s=%d vs %s=%d", a.Backend, a.FinalSeq, b.Backend, b.FinalSeq)
	}
	if a.EditsAccepted != b.EditsAccepted || a.EditsRejected != b.EditsRejected {
		t.Errorf("edit outcomes diverged: %s=%d/%d vs %s=%d/%d",
			a.Backend, a.EditsAccepted, a.EditsRejected, b.Backend, b.EditsAccepted, b.EditsRejected)
	}
	if d := math.Abs(a.FinalScore - b.FinalScore); d > 1e-9 {
		t.Errorf("objective diverged by %g: %s=%.12f vs %s=%.12f", d, a.Backend, a.FinalScore, b.Backend, b.FinalScore)
	}
	if a.FinalScore == 0 && b.FinalScore == 0 {
		t.Error("both replays ended with a zero objective — the final view carried no result")
	}
}

// TestReplayDeterministicAcrossRuns: the same track replayed twice against
// fresh mem:// sessions lands on the identical final state.
func TestReplayDeterministicAcrossRuns(t *testing.T) {
	tr := testTrack(t, "coi-storm", 11)
	assertParity(t, replayOn(t, "mem://", tr), replayOn(t, "mem://", tr))
}

// TestReplayParityMemHTTP: the same track against mem:// and a live http://
// server — the acceptance check of the subsystem.
func TestReplayParityMemHTTP(t *testing.T) {
	tr := testTrack(t, "deadline-rush", 11)
	mem := replayOn(t, "mem://", tr)
	http := replayOn(t, liveServer(t), tr)
	assertParity(t, mem, http)
	if mem.EditsRejected != 0 {
		t.Errorf("generated track had %d rejections", mem.EditsRejected)
	}
}

// TestReplayStats sanity-checks the report's derived numbers.
func TestReplayStats(t *testing.T) {
	tr := testTrack(t, "withdrawal-wave", 3)
	rep := replayOn(t, "mem://", tr)
	edit := rep.Kinds["edit"]
	if edit == nil || edit.Count == 0 {
		t.Fatal("no aggregated edit stats")
	}
	if edit.Accepted != rep.EditsAccepted || edit.Rejected != rep.EditsRejected {
		t.Fatalf("edit aggregate %d/%d disagrees with totals %d/%d",
			edit.Accepted, edit.Rejected, rep.EditsAccepted, rep.EditsRejected)
	}
	if edit.P50NS <= 0 || edit.P99NS < edit.P50NS || edit.MaxNS < edit.P99NS {
		t.Fatalf("implausible percentiles: p50=%d p99=%d max=%d", edit.P50NS, edit.P99NS, edit.MaxNS)
	}
	if len(edit.HistogramLog2US) == 0 {
		t.Fatal("missing latency histogram")
	}
	n := 0
	for _, b := range edit.HistogramLog2US {
		n += b
	}
	if n != edit.Count {
		t.Fatalf("histogram holds %d samples, want %d", n, edit.Count)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("no phase stats despite phase markers")
	}
	if rep.Kinds[track.OpResolve] == nil {
		t.Fatal("no resolve stats")
	}
}

func TestTenantIDFor(t *testing.T) {
	for name, want := range map[string]string{
		"deadline-rush-db08": "track-deadline-rush-db08",
		"Weird Name!":        "track-weird-name",
		"":                   "track-track",
	} {
		if got := track.TenantIDFor(name); got != want {
			t.Errorf("TenantIDFor(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestCommittedTracksParity replays every track committed under
// testdata/tracks against mem:// twice and against a live http:// server
// once, asserting full parity — the repo's canonical tracks must stay
// replayable by construction. Paper-scale, so skipped under -short.
func TestCommittedTracksParity(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale track replays")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "tracks", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("want at least 2 committed tracks, found %v", paths)
	}
	url := liveServer(t)
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			tr, err := track.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mem := replayOn(t, "mem://", tr)
			assertParity(t, mem, replayOn(t, "mem://", tr))
			assertParity(t, mem, replayOn(t, url, tr))
			if mem.EditsRejected != 0 {
				t.Errorf("committed track has %d rejected edits", mem.EditsRejected)
			}
		})
	}
}
