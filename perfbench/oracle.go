package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"

	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// The oracle is the benchmark's own plain Dijkstra over the graph's arcs.
// It shares no code with any technique or with internal/dijkstra, so a
// fault in the code under test cannot hide in the answers it is checked
// against.

type heapItem struct {
	d int64
	v graph.VertexID
}

type minHeap []heapItem

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *minHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstraTo returns the distances from s to each of targets
// (graph.Infinity for unreachable ones), stopping once all are settled.
func dijkstraTo(g *graph.Graph, s graph.VertexID, targets []graph.VertexID) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.Infinity
	}
	settled := make([]bool, n)
	want := make(map[graph.VertexID]bool, len(targets))
	for _, t := range targets {
		want[t] = true
	}
	left := len(want)
	dist[s] = 0
	h := &minHeap{{0, s}}
	for h.Len() > 0 && left > 0 {
		it := heap.Pop(h).(heapItem)
		if settled[it.v] {
			continue
		}
		settled[it.v] = true
		if want[it.v] {
			left--
		}
		lo, hi := g.ArcsOf(it.v)
		for a := lo; a < hi; a++ {
			w := g.Head(a)
			if nd := it.d + int64(g.ArcWeight(a)); nd < dist[w] {
				dist[w] = nd
				heap.Push(h, heapItem{nd, w})
			}
		}
	}
	out := make([]int64, len(targets))
	for i, t := range targets {
		out[i] = dist[t]
	}
	return out
}

// fillOracle computes the expected answer of every pool request, running
// one Dijkstra per distinct source on `workers` goroutines.
func fillOracle(g *graph.Graph, pool []*request, workers int) {
	jobs := distinctSources(pool)
	type result struct {
		s       graph.VertexID
		targets []graph.VertexID
		dist    []int64
	}
	in := make(chan result)
	out := make(chan result, len(jobs)) // one slot per job: workers never block on send
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range in {
				j.dist = dijkstraTo(g, j.s, j.targets)
				out <- j
			}
		}()
	}
	for s, ts := range jobs {
		in <- result{s: s, targets: ts}
	}
	close(in)
	wg.Wait()
	close(out)
	dist := map[[2]graph.VertexID]int64{}
	for r := range out {
		for i, t := range r.targets {
			dist[[2]graph.VertexID{r.s, t}] = r.dist[i]
		}
	}
	for _, r := range pool {
		if r.sources == nil {
			r.dist = dist[[2]graph.VertexID{r.from, r.to}]
			continue
		}
		r.table = make([][]int64, len(r.sources))
		for i, s := range r.sources {
			r.table[i] = make([]int64, len(r.targets))
			for j, t := range r.targets {
				r.table[i][j] = dist[[2]graph.VertexID{s, t}]
			}
		}
	}
}

func distSq(p, q geom.Point) int64 {
	dx, dy := int64(p.X)-int64(q.X), int64(p.Y)-int64(q.Y)
	return dx*dx + dy*dy
}

// linearNearest scans every vertex for the one nearest to p (lowest id on
// ties) and returns it with its squared distance.
func linearNearest(g *graph.Graph, p geom.Point) (graph.VertexID, int64) {
	best, bestD := graph.VertexID(-1), int64(math.MaxInt64)
	for v, c := range g.Coords() {
		if d := distSq(p, c); d < bestD {
			best, bestD = graph.VertexID(v), d
		}
	}
	return best, bestD
}

// nearestOtherDistSq is the squared distance from v to the nearest other
// vertex, by linear scan.
func nearestOtherDistSq(g *graph.Graph, v graph.VertexID) int64 {
	c := g.Coord(v)
	best := int64(math.MaxInt64)
	for u, cu := range g.Coords() {
		if graph.VertexID(u) != v {
			best = min(best, distSq(c, cu))
		}
	}
	return best
}

// minArcWeight is the lightest arc u→v, or false when none exists.
func minArcWeight(g *graph.Graph, u, v graph.VertexID) (int64, bool) {
	best, ok := int64(math.MaxInt64), false
	lo, hi := g.ArcsOf(u)
	for a := lo; a < hi; a++ {
		if g.Head(a) == v {
			best, ok = min(best, int64(g.ArcWeight(a))), true
		}
	}
	return best, ok
}

type distanceReply struct {
	From      graph.VertexID `json:"from"`
	To        graph.VertexID `json:"to"`
	Reachable bool           `json:"reachable"`
	Distance  int64          `json:"distance"`
}

type routeReply struct {
	distanceReply
	Vertices []graph.VertexID `json:"vertices"`
	Coords   [][2]int32       `json:"coords"`
}

type matrixReply struct {
	Sources   []graph.VertexID `json:"sources"`
	Targets   []graph.VertexID `json:"targets"`
	Distances [][]int64        `json:"distances"`
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// check verifies one reply body against the oracle: distances and matrix
// cells must equal Dijkstra's, routes must walk existing arcs from the
// expected endpoints with weights summing to the distance, and snapped
// endpoints must be a nearest vertex of their coordinate.
func check(g *graph.Graph, kind string, r *request, body []byte) error {
	switch kind {
	case "matrix":
		var rep matrixReply
		if err := decodeStrict(body, &rep); err != nil {
			return fmt.Errorf("matrix reply: %v", err)
		}
		if !slices.Equal(rep.Sources, r.sources) || !slices.Equal(rep.Targets, r.targets) || len(rep.Distances) != len(r.sources) {
			return fmt.Errorf("matrix reply echoes other endpoints or has %d rows", len(rep.Distances))
		}
		for i, row := range rep.Distances {
			if len(row) != len(r.targets) {
				return fmt.Errorf("matrix row %d has %d cells, want %d", i, len(row), len(r.targets))
			}
			for j, d := range row {
				if want := wireDistance(r.table[i][j]); d != want {
					return fmt.Errorf("matrix cell (%d,%d) = %d, Dijkstra says %d", r.sources[i], r.targets[j], d, want)
				}
			}
		}
		return nil
	case "route":
		var rep routeReply
		if err := decodeStrict(body, &rep); err != nil {
			return fmt.Errorf("route reply: %v", err)
		}
		if err := checkEndpoints(g, r, rep.distanceReply); err != nil {
			return err
		}
		return checkPath(g, rep)
	default:
		var rep distanceReply
		if err := decodeStrict(body, &rep); err != nil {
			return fmt.Errorf("distance reply: %v", err)
		}
		return checkEndpoints(g, r, rep)
	}
}

func wireDistance(d int64) int64 {
	if d >= graph.Infinity {
		return -1
	}
	return d
}

func checkEndpoints(g *graph.Graph, r *request, rep distanceReply) error {
	for _, e := range []struct {
		name      string
		got, want graph.VertexID
		pt        *geom.Point
	}{{"from", rep.From, r.from, r.fromPt}, {"to", rep.To, r.to, r.toPt}} {
		if e.pt != nil {
			if e.got < 0 || int(e.got) >= g.NumVertices() {
				return fmt.Errorf("%s snapped to %d, not a vertex", e.name, e.got)
			}
			if _, best := linearNearest(g, *e.pt); distSq(*e.pt, g.Coord(e.got)) != best {
				return fmt.Errorf("%s (%d,%d) snapped to %d, which is not a nearest vertex", e.name, e.pt.X, e.pt.Y, e.got)
			}
		}
		if e.got != e.want {
			return fmt.Errorf("%s = %d, want %d", e.name, e.got, e.want)
		}
	}
	if reachable := r.dist < graph.Infinity; rep.Reachable != reachable {
		return fmt.Errorf("%d→%d reachable = %v, Dijkstra says %v", r.from, r.to, rep.Reachable, reachable)
	}
	if rep.Reachable && rep.Distance != r.dist {
		return fmt.Errorf("%d→%d distance = %d, Dijkstra says %d", r.from, r.to, rep.Distance, r.dist)
	}
	return nil
}

func checkPath(g *graph.Graph, rep routeReply) error {
	if !rep.Reachable {
		if len(rep.Vertices) != 0 {
			return fmt.Errorf("unreachable %d→%d carries %d vertices", rep.From, rep.To, len(rep.Vertices))
		}
		return nil
	}
	vs := rep.Vertices
	if len(vs) == 0 || vs[0] != rep.From || vs[len(vs)-1] != rep.To {
		return fmt.Errorf("route %d→%d does not run from its source to its target", rep.From, rep.To)
	}
	if len(rep.Coords) != len(vs) {
		return fmt.Errorf("route %d→%d has %d vertices but %d coords", rep.From, rep.To, len(vs), len(rep.Coords))
	}
	var sum int64
	for i, v := range vs {
		if v < 0 || int(v) >= g.NumVertices() {
			return fmt.Errorf("route %d→%d visits %d, not a vertex", rep.From, rep.To, v)
		}
		if c := g.Coord(v); rep.Coords[i] != [2]int32{c.X, c.Y} {
			return fmt.Errorf("route %d→%d: coords of %d are %v, want (%d,%d)", rep.From, rep.To, v, rep.Coords[i], c.X, c.Y)
		}
		if i == 0 {
			continue
		}
		w, ok := minArcWeight(g, vs[i-1], v)
		if !ok {
			return fmt.Errorf("route %d→%d steps %d→%d, which is not an edge", rep.From, rep.To, vs[i-1], v)
		}
		sum += w
	}
	if sum != rep.Distance {
		return fmt.Errorf("route %d→%d weighs %d but reports distance %d", rep.From, rep.To, sum, rep.Distance)
	}
	return nil
}
