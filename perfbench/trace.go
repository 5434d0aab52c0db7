package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"roadnet"
	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/metrics"
	"roadnet/internal/server"
)

// span is one timed call into a layer: name, start, end and the span that
// caused it (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write puts them in a file when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeRounds is how many times each per-request probe walks the pool; a
// probe reports the median of its rounds' means.
const probeRounds = 3

// timeRounds runs fn over n items probeRounds times, one span per call
// under a root span per round, and returns the median round mean. before,
// when set, runs ahead of each round, outside the timed calls.
func timeRounds(tr *tracer, name string, n int, before func(), fn func(i int)) time.Duration {
	means := make([]time.Duration, probeRounds)
	for r := range means {
		if before != nil {
			before()
		}
		root := tr.begin("probe."+name, -1)
		var sum time.Duration
		for i := 0; i < n; i++ {
			sp := tr.begin(name, root)
			fn(i)
			sum += tr.end(sp)
		}
		tr.end(root)
		means[r] = sum / time.Duration(n)
	}
	return quantile(means, 0.5)
}

// timeBatch times fn(n) as one span, probeRounds times, and returns the
// median time per item: for calls too short to time one by one.
func timeBatch(tr *tracer, name string, n int, fn func(n int)) time.Duration {
	per := make([]time.Duration, probeRounds)
	for r := range per {
		sp := tr.begin(name, -1)
		fn(n)
		per[r] = tr.end(sp) / time.Duration(n)
	}
	return quantile(per, 0.5)
}

// discardWriter is an http.ResponseWriter that keeps the last body for
// comparison and counts the bytes written.
type discardWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}
func (w *discardWriter) Flush() {}

func (w *discardWriter) reset() {
	clear(w.h)
	w.status = 0
	w.body.Reset()
}

// metricSet holds a run's reported figures by name.
type metricSet map[string]metric

// probeLayers loads the run's files in this process the way spserve does
// and times the calls into each layer's public functions on the
// workload's pool.
func probeLayers(w workload, files runFiles, built roadnet.Index, pool []*request, verified [][]byte, tr *tracer, out metricSet) error {
	ctx := context.Background()
	g, err := roadnet.LoadGraphFile(files.graph, roadnet.MmapSupported)
	if err != nil {
		return err
	}
	defer g.Close()

	// core: the production load path, timed as spserve pays it.
	var loads, verifies []time.Duration
	var idx core.Index
	for i := 0; i < 5; i++ {
		sp := tr.begin("core.LoadIndexFile", -1)
		ix, info, err := core.LoadIndexFile(w.method, files.index, g, roadnet.MmapSupported)
		tr.end(sp)
		if err != nil {
			return err
		}
		loads = append(loads, info.LoadTime)
		verifies = append(verifies, info.VerifyTime)
		if i < 4 {
			if err := core.CloseIndex(ix); err != nil {
				return err
			}
			continue
		}
		idx = ix
	}
	defer core.CloseIndex(idx)
	out.set("core.load_ms", ms(quantile(loads, 0.5)), "ms")
	out.set("core.verify_ms", ms(quantile(verifies, 0.5)), "ms")

	tree, err := roadnet.LoadRTreeFile(files.rtree, roadnet.MmapSupported)
	if err != nil {
		return err
	}
	defer tree.Close()
	loc, err := roadnet.NewSpatialLocatorFromTree(g, tree)
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	cpool := core.NewPool(idx, core.WithMetrics(reg))
	cpool.Prewarm(runtime.GOMAXPROCS(0))
	const gets = 200000
	out.set("core.pool_get_ns", float64(timeBatch(tr, "core.GetContext+Put", gets, func(n int) {
		for i := 0; i < n; i++ {
			sr, _ := cpool.GetContext(ctx) // unbounded pool: never fails
			cpool.Put(sr)
		}
	})), "ns")

	// server: the handler spserve mounts, on the same requests, no network.
	srv := server.New(g, idx, server.WithPool(cpool), server.WithSpatialLocator(loc),
		server.WithHealth(server.NewHealth()), server.WithMetrics(reg))
	h := srv.Handler()
	rw := &discardWriter{h: http.Header{}}
	reqs := make([]*http.Request, len(pool))
	parse := func() {
		for i, r := range pool {
			// The raw bytes parsed cleanly as a request when they were built.
			reqs[i], _ = http.ReadRequest(bufio.NewReader(bytes.NewReader(r.raw)))
		}
	}
	// One untimed pass counts allocations and reply bytes and checks that
	// the in-process replies equal the verified ones.
	parse()
	var before, after runtime.MemStats
	var respBytes int64
	runtime.ReadMemStats(&before)
	for i := range pool {
		rw.reset()
		h.ServeHTTP(rw, reqs[i])
		respBytes += int64(rw.body.Len())
		if rw.status != http.StatusOK || !bytes.Equal(rw.body.Bytes(), verified[i]) {
			return fmt.Errorf("in-process handler answered %d for pool request %d, not the verified reply", rw.status, i)
		}
	}
	runtime.ReadMemStats(&after)
	out.set("server.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(len(pool)), "count")
	out.set("server.resp_bytes", float64(respBytes)/float64(len(pool)), "bytes")
	out.set("server.handler_us", us(timeRounds(tr, "server.ServeHTTP", len(pool), parse, func(i int) {
		rw.reset()
		h.ServeHTTP(rw, reqs[i])
	})), "us")

	// ch: point-to-point search on the workload's pairs, through the
	// hierarchy the index serves from (TNR's own for its local fallbacks).
	var hier *ch.Hierarchy
	var buildHier *ch.Hierarchy
	switch w.method {
	case roadnet.CH:
		hier, buildHier = core.HierarchyOf(idx), core.HierarchyOf(built)
	case roadnet.TNR:
		hier, buildHier = core.TNROf(idx).Hierarchy(), core.TNROf(built).Hierarchy()
	}
	out.set("ch.build_s", buildHier.BuildTime().Seconds(), "s")
	pairs := poolPairs(pool)
	chs := hier.NewSearcher()
	var settled int64
	out.set("ch.search_us", us(timeRounds(tr, "ch.DistanceContext", len(pairs), nil, func(i int) {
		_, _ = chs.DistanceContext(ctx, pairs[i][0], pairs[i][1]) // background context: never cancelled
		settled += int64(chs.SettledLast())
	})), "us")
	out.set("ch.settled", float64(settled)/float64(probeRounds*len(pairs)), "count")

	if w.kind == "matrix" {
		out.set("ch.matrix_ms", ms(timeRounds(tr, "ch.ManyToMany", len(pool), nil, func(i int) {
			hier.ManyToMany(pool[i].sources, pool[i].targets)
		})), "ms")
	}

	if w.method == roadnet.TNR {
		t := core.TNROf(idx)
		out.set("tnr.build_s", core.TNROf(built).BuildTime().Seconds(), "s")
		sr := t.NewSearcher()
		table0, fallback0 := t.QueryCounts()
		search := timeRounds(tr, "tnr.DistanceContext", len(pairs), nil, func(i int) {
			_, _ = sr.DistanceContext(ctx, pairs[i][0], pairs[i][1])
		})
		table1, fallback1 := t.QueryCounts()
		out.set("tnr.search_us", us(search), "us")
		out.set("tnr.table_hits", float64(table1-table0)/probeRounds, "count")
		out.set("tnr.fallbacks", float64(fallback1-fallback0)/probeRounds, "count")

		var hops int64
		var pathErr error
		path := timeRounds(tr, "core.OpenPath+drain", len(pairs), nil, func(i int) {
			it, _, err := core.OpenPath(ctx, sr, pairs[i][0], pairs[i][1])
			if err != nil {
				pathErr = fmt.Errorf("OpenPath %d→%d: %v", pairs[i][0], pairs[i][1], err)
				return
			}
			if it == nil { // unreachable: no path to drain
				return
			}
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				hops++
			}
			hops-- // a path of k vertices has k-1 hops
		})
		if pathErr != nil {
			return pathErr
		}
		out.set("graph.path_us", us(path-search), "us")
		out.set("graph.path_hops", float64(hops)/float64(probeRounds*len(pairs)), "count")

		var pts []roadnet.Point
		for _, r := range pool {
			for _, p := range []*roadnet.Point{r.fromPt, r.toPt} {
				if p != nil {
					pts = append(pts, *p)
				}
			}
		}
		if len(pts) > 0 {
			const reps = 200
			out.set("rtree.snap_us", us(timeBatch(tr, "rtree.NearestVertex", reps*len(pts), func(n int) {
				for i := 0; i < n; i++ {
					loc.NearestVertex(pts[i%len(pts)])
				}
			})), "us")
		}
	}
	return nil
}

// poolPairs lists the (source, target) pairs the pool's requests ask for;
// a matrix contributes every cell.
func poolPairs(pool []*request) [][2]roadnet.VertexID {
	var pairs [][2]roadnet.VertexID
	for _, r := range pool {
		if r.sources == nil {
			pairs = append(pairs, [2]roadnet.VertexID{r.from, r.to})
			continue
		}
		for _, s := range r.sources {
			for _, t := range r.targets {
				pairs = append(pairs, [2]roadnet.VertexID{s, t})
			}
		}
	}
	return pairs
}

func (m metricSet) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerNames lists every per-layer metric with its unit, in report order.
var layerNames = []struct{ name, unit string }{
	{"server.handler_us", "us"}, {"server.allocs_per_req", "count"}, {"server.resp_bytes", "bytes"},
	{"net.rtt_us", "us"},
	{"core.pool_get_ns", "ns"}, {"core.load_ms", "ms"}, {"core.verify_ms", "ms"},
	{"ch.search_us", "us"}, {"ch.settled", "count"}, {"ch.matrix_ms", "ms"}, {"ch.build_s", "s"},
	{"tnr.search_us", "us"}, {"tnr.table_hits", "count"}, {"tnr.fallbacks", "count"}, {"tnr.build_s", "s"},
	{"graph.path_us", "us"}, {"graph.path_hops", "count"},
	{"rtree.snap_us", "us"},
	{"loadgen.late_ms", "ms"}, {"p10_ms", "ms"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
}
