package flow

// The SPFA successive-shortest-paths solver this package started with: a
// generic adjacency-list min-cost max-flow (one SPFA search per unit of
// flow) and the transportation wrapper over it. It is the reference the
// Transport parity tests compare against and the frozen yardstick the bench
// regression gates normalize by (BenchmarkTransportSolve/legacy-200x400).

import (
	"errors"
	"math"
)

// Graph is a flow network on nodes 0..n-1 with capacities and per-unit costs.
type Graph struct {
	n     int
	heads [][]int // adjacency: node -> indices into edges
	edges []edge
}

type edge struct {
	to, rev  int // rev is the global index of the reverse edge in edges
	cap      int
	cost     float64
	original int // original capacity (to recover flow)
}

// NewGraph creates an empty flow network with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{n: n, heads: make([][]int, n)}
}

// AddEdge adds a directed edge from u to v with the given capacity and cost
// and returns its identifier, which can later be passed to Flow.
func (g *Graph) AddEdge(u, v, capacity int, cost float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic("flow: node out of range")
	}
	id := len(g.edges)
	rid := id + 1
	g.edges = append(g.edges, edge{to: v, rev: rid, cap: capacity, cost: cost, original: capacity})
	g.edges = append(g.edges, edge{to: u, rev: id, cap: 0, cost: -cost, original: 0})
	g.heads[u] = append(g.heads[u], id)
	g.heads[v] = append(g.heads[v], rid)
	return id
}

// Flow returns the amount of flow pushed through the edge with the given
// identifier after MinCostFlow has run.
func (g *Graph) Flow(id int) int {
	e := g.edges[id]
	return e.original - e.cap
}

// MinCostFlow pushes up to maxFlow units from source to sink along successive
// shortest (cheapest) paths and returns the flow actually pushed and its total
// cost. Negative edge costs are allowed (SPFA is used for the shortest path).
func (g *Graph) MinCostFlow(source, sink, maxFlow int) (int, float64, error) {
	if source == sink {
		return 0, 0, errors.New("flow: source equals sink")
	}
	totalFlow := 0
	totalCost := 0.0
	for totalFlow < maxFlow {
		dist, parentEdge := g.spfa(source)
		if math.IsInf(dist[sink], 1) {
			break
		}
		// Find bottleneck along the path.
		push := maxFlow - totalFlow
		for v := sink; v != source; {
			id := parentEdge[v]
			if g.edges[id].cap < push {
				push = g.edges[id].cap
			}
			v = g.edges[g.edges[id].rev].to // tail of edge id
		}
		// Apply.
		for v := sink; v != source; {
			id := parentEdge[v]
			g.edges[id].cap -= push
			g.edges[g.edges[id].rev].cap += push
			v = g.edges[g.edges[id].rev].to
		}
		totalFlow += push
		totalCost += dist[sink] * float64(push)
	}
	return totalFlow, totalCost, nil
}

// spfa computes single-source shortest distances by cost over edges with
// residual capacity, returning the distance array and, for every node, the
// edge used to reach it.
func (g *Graph) spfa(source int) ([]float64, []int) {
	dist := make([]float64, g.n)
	inQueue := make([]bool, g.n)
	parentEdge := make([]int, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parentEdge[i] = -1
	}
	dist[source] = 0
	queue := []int{source}
	inQueue[source] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for _, id := range g.heads[u] {
			e := g.edges[id]
			if e.cap <= 0 {
				continue
			}
			if nd := dist[u] + e.cost; nd < dist[e.to]-1e-12 {
				dist[e.to] = nd
				parentEdge[e.to] = id
				if !inQueue[e.to] {
					queue = append(queue, e.to)
					inQueue[e.to] = true
				}
			}
		}
	}
	return dist, parentEdge
}

// legacyMaxProfitTransport is the original transportation path: it expands
// the instance into the generic adjacency-list Graph (source → rows → columns
// → sink) and runs the SPFA-based successive-shortest-paths solver, one
// search per unit of flow.
func legacyMaxProfitTransport(profit [][]float64, rowNeed, colCap []int) ([][]int, float64, error) {
	if err := validateTransport(profit, rowNeed, colCap); err != nil {
		return nil, 0, err
	}
	n := len(profit)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(profit[0])
	need := 0
	for _, r := range rowNeed {
		need += r
	}

	// Node layout: 0 = source, 1..n = rows, n+1..n+m = columns, n+m+1 = sink.
	source := 0
	rowNode := func(i int) int { return 1 + i }
	colNode := func(j int) int { return 1 + n + j }
	sink := 1 + n + m
	g := NewGraph(sink + 1)

	for i := 0; i < n; i++ {
		g.AddEdge(source, rowNode(i), rowNeed[i], 0)
	}
	type pairEdge struct{ row, col, id int }
	var pairs []pairEdge
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			p := profit[i][j]
			if math.IsInf(p, -1) {
				continue
			}
			id := g.AddEdge(rowNode(i), colNode(j), 1, -p)
			pairs = append(pairs, pairEdge{row: i, col: j, id: id})
		}
	}
	for j := 0; j < m; j++ {
		if colCap[j] > 0 {
			g.AddEdge(colNode(j), sink, colCap[j], 0)
		}
	}

	flowed, cost, err := g.MinCostFlow(source, sink, need)
	if err != nil {
		return nil, 0, err
	}
	if flowed < need {
		return nil, 0, ErrInfeasible
	}
	out := make([][]int, n)
	for _, pe := range pairs {
		if g.Flow(pe.id) > 0 {
			out[pe.row] = append(out[pe.row], pe.col)
		}
	}
	return out, -cost, nil
}
