package wgrap_test

import (
	"context"
	"fmt"

	wgrap "repro"
)

// ExampleAssignJournal reproduces the running example of Section 3 of the
// paper: three candidate reviewers, one paper, and a group of two to select.
func ExampleAssignJournal() {
	papers := []wgrap.Paper{{ID: "p", Topics: wgrap.Vector{0.35, 0.45, 0.2}}}
	reviewers := []wgrap.Reviewer{
		{ID: "r1", Topics: wgrap.Vector{0.15, 0.75, 0.1}},
		{ID: "r2", Topics: wgrap.Vector{0.75, 0.15, 0.1}},
		{ID: "r3", Topics: wgrap.Vector{0.1, 0.35, 0.55}},
	}
	in := wgrap.NewInstance(papers, reviewers, 2, 1)
	best, err := wgrap.AssignJournal(in)
	if err != nil {
		panic(err)
	}
	fmt.Printf("best group: %v (coverage %.2f)\n", best.Group, best.Score)
	// Output:
	// best group: [0 1] (coverage 0.90)
}

// ExampleSolver_Solve assigns two reviewers to each of three papers with the
// default SDGA + stochastic refinement pipeline.
func ExampleSolver_Solve() {
	papers := []wgrap.Paper{
		{ID: "p1", Topics: wgrap.Vector{0.6, 0, 0.4}},
		{ID: "p2", Topics: wgrap.Vector{0.5, 0.5, 0}},
		{ID: "p3", Topics: wgrap.Vector{0.5, 0.5, 0}},
	}
	reviewers := []wgrap.Reviewer{
		{ID: "r1", Topics: wgrap.Vector{0.1, 0.5, 0.4}},
		{ID: "r2", Topics: wgrap.Vector{1, 0, 0}},
		{ID: "r3", Topics: wgrap.Vector{0, 1, 0}},
	}
	in := wgrap.NewInstance(papers, reviewers, 2, 2)
	s, err := wgrap.NewSolver(in, wgrap.WithSeed(1))
	if err != nil {
		panic(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("total coverage %.2f, worst paper %.2f\n", res.Score, res.LowestCoverage)
	// Output:
	// total coverage 2.60, worst paper 0.60
}

// ExampleWeightedCoverage scores a single reviewer against a paper
// (Definition 1).
func ExampleWeightedCoverage() {
	paper := wgrap.Vector{0.6, 0.4}
	reviewer := wgrap.Vector{0.5, 0.5}
	fmt.Printf("%.2f\n", wgrap.WeightedCoverage(reviewer, paper))
	// Output:
	// 0.90
}

// ExampleSolver_ResolveAsync demonstrates concurrent serving: View returns a
// lock-free versioned snapshot that never blocks on a running solve, edits
// coalesce into a pending batch, and ResolveAsync drains the whole batch as
// one warm re-solve in the background, completing a Ticket when the new
// version is published.
func ExampleSolver_ResolveAsync() {
	papers := []wgrap.Paper{
		{ID: "p1", Topics: wgrap.Vector{0.6, 0, 0.4}},
		{ID: "p2", Topics: wgrap.Vector{0.5, 0.5, 0}},
		{ID: "p3", Topics: wgrap.Vector{0.5, 0.5, 0}},
	}
	reviewers := []wgrap.Reviewer{
		{ID: "r1", Topics: wgrap.Vector{0.1, 0.5, 0.4}},
		{ID: "r2", Topics: wgrap.Vector{1, 0, 0}},
		{ID: "r3", Topics: wgrap.Vector{0, 1, 0}},
	}
	in := wgrap.NewInstance(papers, reviewers, 2, 2)
	s, err := wgrap.NewSolver(in, wgrap.WithMethod(wgrap.MethodSDGA), wgrap.WithSeed(1))
	if err != nil {
		panic(err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		panic(err)
	}

	// Snapshot reads: any goroutine may call View at any time, including
	// while a solve is running; it never takes the solve lock.
	v := s.View()
	fmt.Printf("version %d warm=%v score %.2f\n", v.Version, v.Warm, v.Result.Score)

	// Edits enqueue into the pending batch; ResolveAsync returns a Ticket
	// immediately and drains the batch as one coalesced warm re-solve.
	if err := s.WithdrawPaper(2); err != nil {
		panic(err)
	}
	ticket := s.ResolveAsync()
	res, err := ticket.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	v = s.View()
	fmt.Printf("version %d warm=%v score %.2f (%d coalesced edit(s))\n", ticket.Version(), v.Warm, res.Score, v.Edits)
	// Output:
	// version 1 warm=false score 2.60
	// version 2 warm=true score 2.00 (1 coalesced edit(s))
}
