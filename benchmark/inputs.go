package main

import (
	"cmp"
	"encoding/json"
	"math/rand"
	"slices"
	"time"

	dccs "repro"
	"repro/internal/datasets"
	"repro/internal/server"
)

// Everything a workload sends is a pure function of the workload seed: the
// graph, the query universe and the op stream. The program under test only
// ever sees the generated requests.

// serveGraph is the graph of hot-cache, cold-search and cold-start: the
// BENCH_serve shape (sparse heavy-tailed background plus planted
// communities over 10 layers), with n vertices.
func serveGraph(seed int64, n int) *dccs.Graph {
	return plantedGraph(seed, n, 10)
}

// liveGraph is the mutable graph of live-mixed: the BENCH_dynamic shape
// over 12 layers.
func liveGraph(seed int64, n int) *dccs.Graph {
	return plantedGraph(seed, n, 12)
}

// structureSeed fixes the planted structure of every graph; the workload
// seed relabels its vertices. Planted graphs drawn from different seeds
// differ in search cost by 30-40% at these sizes, more than any bound
// could absorb, while relabeled copies of one graph do the same search
// work, node for node, on different bytes: other CSR arrays,
// fingerprints, answers and cache keys. Layers keep their order: the
// search breaks ties between layers by index, so permuting them changes
// the work by up to 10%.
const structureSeed = 1

func plantedGraph(seed int64, n, layers int) *dccs.Graph {
	base := datasets.Generate(datasets.Config{
		Name: "bench", N: n, Layers: layers, Seed: structureSeed,
		AvgDegree: 2.2, Gamma: 2.3, Correlation: 0.5,
		Communities: n / 500, MinSize: 12, MaxSize: 30,
		MinSupport: 3, MaxSupport: 6, PIn: 0.6,
		Persistent: 4, CrossLayerNoise: 0.05,
	}).Graph
	label := rand.New(rand.NewSource(seed)).Perm(n)
	b := dccs.NewBuilder(n, layers)
	for l := 0; l < layers; l++ {
		for u := 0; u < n; u++ {
			for _, v := range base.Neighbors(l, u) {
				if int(v) > u {
					b.MustAddEdge(l, label[u], label[v])
				}
			}
		}
	}
	return b.Build()
}

// op is one request of a workload's stream.
type op struct {
	due   time.Duration // offset from the window start (open loops)
	side  bool          // the workload's side operation rather than its main one
	path  string        // request path
	body  []byte        // request body
	items []int         // query universe indices or query item numbers it carries
}

func searchBody(q dccs.Query) []byte {
	return mustJSON(server.SearchRequest{D: q.D, S: q.S, K: q.K, Seed: q.Seed})
}

func batchBody(qs []dccs.Query) []byte {
	req := server.BatchRequest{Queries: make([]server.BatchQuery, len(qs))}
	for i, q := range qs {
		req.Queries[i] = server.BatchQuery{D: q.D, S: q.S, K: q.K, Seed: q.Seed}
	}
	return mustJSON(req)
}

// mustJSON marshals request values built from plain fields, which cannot
// fail to encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// hotUniverse is hot-cache's 64 distinct queries: seed 1..8 × d ∈ {3,4}
// × s ∈ {2,3,4,8}, k = 10, in popularity order. It fits the server's
// default 1024-entry cache many times over. Every 8 consecutive queries
// cover all 8 shapes, so the hot keys carry small and large answers alike
// whatever the Zipf draws.
func hotUniverse() []dccs.Query {
	var u []dccs.Query
	for seed := int64(1); seed <= 8; seed++ {
		for _, d := range []int{3, 4} {
			for _, s := range []int{2, 3, 4, 8} {
				u = append(u, dccs.Query{D: d, S: s, K: 10, Seed: seed})
			}
		}
	}
	return u
}

const (
	hotSearchEvery = 2500 * time.Microsecond // 400 searches/s
	hotBatchEvery  = 100 * time.Millisecond  // 10 batches/s
	hotBatchSize   = 8
)

// hotOps is hot-cache's open-loop schedule over the window. Searches draw
// a universe query Zipf(1.1) by popularity rank; batches draw a query
// seed the same way and ask for its 8 shapes, so every batch carries the
// same mix of answer sizes.
func hotOps(seed int64, window time.Duration) []op {
	u := hotUniverse()
	rng := rand.New(rand.NewSource(seed))
	query := rand.NewZipf(rng, 1.1, 1, uint64(len(u)-1))
	group := rand.NewZipf(rng, 1.1, 1, uint64(len(u)/hotBatchSize-1))
	var ops []op
	for t := time.Duration(0); t < window; t += hotSearchEvery {
		i := int(query.Uint64())
		ops = append(ops, op{due: t, path: "/v1/search", body: searchBody(u[i]), items: []int{i}})
	}
	for t := hotSearchEvery / 2; t < window; t += hotBatchEvery {
		first := int(group.Uint64()) * hotBatchSize
		items := make([]int, hotBatchSize)
		for k := range items {
			items[k] = first + k
		}
		ops = append(ops, op{due: t, side: true, path: "/v1/search/batch", body: batchBody(u[first : first+hotBatchSize]), items: items})
	}
	slices.SortStableFunc(ops, func(a, b op) int { return cmp.Compare(a.due, b.due) })
	return ops
}

// coldItem is query item j of cold-search. Shapes alternate bottom-up
// (s = 3) and top-down (s = l-2), and d is 3 for items 0-1, 4 for items
// 2-3 and so on, so every four items cover both shapes at both
// thresholds. The seed is unique within the run, so no item is ever
// answered from cache.
func coldItem(seed int64, layers, j int) dccs.Query {
	s := 3
	if j%2 == 1 {
		s = layers - 2
	}
	return dccs.Query{D: 3 + (j/2)%2, S: s, K: 10, Seed: seed<<24 + int64(j) + 1}
}

// coldOp is op i of cold-search's closed-loop stream: every 4th op is a
// batch of the next 4 query items, the rest are single searches, so each
// group of 4 ops carries 7 items.
func coldOp(seed int64, layers, i int) op {
	first := i/4*7 + i%4
	if i%4 < 3 {
		return op{path: "/v1/search", body: searchBody(coldItem(seed, layers, first)), items: []int{first}}
	}
	items := []int{first, first + 1, first + 2, first + 3}
	qs := make([]dccs.Query, len(items))
	for k, j := range items {
		qs[k] = coldItem(seed, layers, j)
	}
	return op{side: true, path: "/v1/search/batch", body: batchBody(qs), items: items}
}

// liveUniverse is live-mixed's 8 read queries: d = 4, s ∈ {2,3}, seed 1..4.
func liveUniverse() []dccs.Query {
	var u []dccs.Query
	for _, s := range []int{2, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			u = append(u, dccs.Query{D: 4, S: s, K: 10, Seed: seed})
		}
	}
	return u
}

const (
	liveSearchEvery = 62500 * time.Microsecond // 16 searches/s
	liveUpdateEvery = 250 * time.Millisecond   // 4 update batches/s
	liveBatchEdges  = 100
)

// liveOps returns live-mixed's two open-loop streams. Update batch b
// touches one layer, ⌊b/2⌋ mod l: even batches insert liveBatchEdges
// edges absent from g, odd batches delete the edges the batch before
// inserted, so the graph returns to g after every pair and every update
// is effective.
func liveOps(seed int64, g *dccs.Graph, window time.Duration) (searches, updates []op) {
	u := liveUniverse()
	rng := rand.New(rand.NewSource(seed))
	for t := time.Duration(0); t < window; t += liveSearchEvery {
		i := rng.Intn(len(u))
		searches = append(searches, op{due: t, path: "/v1/search", body: searchBody(u[i]), items: []int{i}})
	}
	var last []server.UpdateEdge
	b := 0
	for t := liveSearchEvery / 2; t < window; t += liveUpdateEvery {
		req := server.UpdateRequest{}
		if b%2 == 0 {
			layer := b / 2 % g.L()
			seen := map[[2]int]bool{}
			for len(req.Updates) < liveBatchEdges {
				x, y := rng.Intn(g.N()), rng.Intn(g.N())
				e := [2]int{min(x, y), max(x, y)}
				if x == y || seen[e] || g.HasEdge(layer, x, y) {
					continue
				}
				seen[e] = true
				req.Updates = append(req.Updates, server.UpdateEdge{Op: "insert", Layer: layer, U: e[0], V: e[1]})
			}
			last = req.Updates
		} else {
			for _, e := range last {
				e.Op = "delete"
				req.Updates = append(req.Updates, e)
			}
		}
		updates = append(updates, op{due: t, side: true, path: "/v1/graphs/" + graphName + "/edges", body: mustJSON(req)})
		b++
	}
	return searches, updates
}

// coldStartQuery is the query of every cold-start op, the dccs CLI's
// defaults: d = 4, s = 3, k = 10.
var coldStartQuery = dccs.Query{D: 4, S: 3, K: 10, Seed: 1}
