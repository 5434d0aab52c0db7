package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"roadnet"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// workload is one traffic mix the benchmark offers to spserve.
type workload struct {
	name   string
	preset string         // scaled Table 1 dataset (internal/gen)
	method roadnet.Method // technique spserve serves with
	kind   string         // "distance", "route" or "matrix"
	rate   float64        // offered requests per second (Poisson arrivals)

	perBucket  int // distinct requests per Q bucket in the request pool
	coordEvery int // route: every coordEvery-th pair of a bucket gives coordinate endpoints (0 = none)
	k          int // matrix: sources and targets per matrix
}

var workloads = []workload{
	{name: "ch-distance", preset: "FL", method: roadnet.CH, kind: "distance", rate: 3000, perBucket: 100},
	{name: "tnr-route", preset: "CO", method: roadnet.TNR, kind: "route", rate: 800, perBucket: 60, coordEvery: 4},
	{name: "ch-matrix", preset: "FL", method: roadnet.CH, kind: "matrix", rate: 100, perBucket: 4, k: 24},
}

// smoke shrinks w to the DE preset at a low rate: the same endpoints,
// technique and checks, small enough for the benchmark's own tests.
func (w workload) smoke() workload {
	w.preset = "DE"
	w.rate = w.rate / 10
	w.perBucket = max(w.perBucket/10, 2)
	if w.k > 0 {
		w.k = 8
	}
	return w
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// request is one distinct operation of the pool, with the answer the
// independent oracle expects.
type request struct {
	raw    []byte // the HTTP/1.1 request exactly as sent
	bucket int    // Q bucket, 0-based

	// distance and route requests
	from, to     graph.VertexID // expected endpoints (snapped ones for coordinates)
	fromPt, toPt *geom.Point    // coordinate endpoints; nil when sent as ids
	dist         int64          // oracle distance, graph.Infinity when unreachable

	// matrix requests
	sources, targets []graph.VertexID
	table            [][]int64 // oracle distances
}

// buildPool draws the workload's request pool from the Q1..Q10 L-infinity
// query sets for seed. The oracle answers are filled in later.
func buildPool(w workload, g *graph.Graph, seed int64) ([]*request, error) {
	per := w.perBucket
	if w.kind == "matrix" {
		per = w.perBucket * w.k
	}
	sets, err := roadnet.LInfQuerySets(g, roadnet.WorkloadConfig{NumSets: 10, PairsPerSet: per, Seed: seed})
	if err != nil {
		return nil, err
	}
	var pool []*request
	for b, set := range sets {
		if len(set.Pairs) < per {
			return nil, fmt.Errorf("bucket %s has %d pairs, want %d", set.Name, len(set.Pairs), per)
		}
		pairs := set.Pairs[:per]
		switch w.kind {
		case "distance":
			for _, p := range pairs {
				pool = append(pool, &request{bucket: b, from: p.S, to: p.T,
					raw: getRequest(fmt.Sprintf("/v1/distance?from=%d&to=%d", p.S, p.T))})
			}
		case "route":
			for i, p := range pairs {
				r := &request{bucket: b, from: p.S, to: p.T}
				if w.coordEvery > 0 && i%w.coordEvery == 0 {
					r.fromPt, r.from = coordinateFor(g, p.S, seed, b, i, 0)
					r.toPt, r.to = coordinateFor(g, p.T, seed, b, i, 1)
				}
				r.raw = getRequest("/v1/route?" + endpointQuery("from", r.from, r.fromPt) + "&" + endpointQuery("to", r.to, r.toPt))
				pool = append(pool, r)
			}
		case "matrix":
			for m := 0; m < w.perBucket; m++ {
				r := &request{bucket: b}
				for _, p := range pairs[m*w.k : (m+1)*w.k] {
					r.sources = append(r.sources, p.S)
					r.targets = append(r.targets, p.T)
				}
				body, err := json.Marshal(map[string][]graph.VertexID{"sources": r.sources, "targets": r.targets})
				if err != nil {
					return nil, err
				}
				r.raw = postRequest("/v1/batch/distance", body)
				pool = append(pool, r)
			}
		default:
			return nil, fmt.Errorf("workload %s: unknown kind %q", w.name, w.kind)
		}
	}
	return pool, nil
}

func endpointQuery(name string, v graph.VertexID, pt *geom.Point) string {
	if pt == nil {
		return fmt.Sprintf("%s=%d", name, v)
	}
	return fmt.Sprintf("%s_x=%d&%s_y=%d", name, pt.X, name, pt.Y)
}

func getRequest(target string) []byte {
	return []byte("GET " + target + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
}

func postRequest(target string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", target, len(body))
	return append([]byte(head), body...)
}

// coordinateFor returns a point near v, jittered by the seed, and the
// vertex a linear scan finds nearest to it. The jitter stays below a third
// of the distance to v's nearest other vertex, so the nearest vertex is
// unique and the server's snap has exactly one right answer. A vertex that
// shares its coordinate with another has no unique nearest vertex; it is
// sent by id (nil point).
func coordinateFor(g *graph.Graph, v graph.VertexID, seed int64, bucket, i, end int) (*geom.Point, graph.VertexID) {
	gap := nearestOtherDistSq(g, v)
	if gap == 0 {
		return nil, v
	}
	// Largest j with 9j² < gap: an offset of at most j per axis moves the
	// point less than half the gap, so v stays the unique nearest vertex.
	j := int64(0)
	for 9*(j+1)*(j+1) < gap {
		j++
	}
	p := g.Coord(v)
	if j > 0 {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(bucket)*10007 + int64(i)*2 + int64(end)))
		p.X += int32(rng.Int63n(2*j+1) - j)
		p.Y += int32(rng.Int63n(2*j+1) - j)
	}
	near, _ := linearNearest(g, p)
	return &p, near
}

// shuffledOrder returns n pool indices in rounds: each round is a fresh
// seeded permutation of the whole pool, so every request, and every Q
// bucket, is offered equally often.
func shuffledOrder(poolSize, n int, rng *rand.Rand) []int {
	order := make([]int, 0, n)
	for len(order) < n {
		perm := rng.Perm(poolSize)
		order = append(order, perm...)
	}
	return order[:n]
}

// bucketCounts reports how many pool requests fall in each Q bucket.
func bucketCounts(pool []*request) []int {
	counts := make([]int, 10)
	for _, r := range pool {
		counts[r.bucket]++
	}
	return counts
}

// distinctSources lists the sources the oracle must search from, with the
// targets each must reach.
func distinctSources(pool []*request) map[graph.VertexID][]graph.VertexID {
	want := map[graph.VertexID]map[graph.VertexID]bool{}
	add := func(s, t graph.VertexID) {
		if want[s] == nil {
			want[s] = map[graph.VertexID]bool{}
		}
		want[s][t] = true
	}
	for _, r := range pool {
		if r.sources != nil {
			for _, s := range r.sources {
				for _, t := range r.targets {
					add(s, t)
				}
			}
			continue
		}
		add(r.from, r.to)
	}
	out := make(map[graph.VertexID][]graph.VertexID, len(want))
	for s, ts := range want {
		list := make([]graph.VertexID, 0, len(ts))
		for t := range ts {
			list = append(list, t)
		}
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
		out[s] = list
	}
	return out
}
