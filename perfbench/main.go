// Command perfbench is the repository's end-to-end benchmark. It builds a
// workload's index through the public build call, starts spserve on the
// saved files as its own process, offers it an open loop of Poisson
// arrivals over loopback TCP, checks every answer against its own plain
// Dijkstra, and prints the end-to-end metrics. With --trace 1 it also
// times the calls into each layer in-process on the same inputs and
// prints the per-layer metrics instead.
//
// Run it through run.sh from the repository root, which builds spserve
// and this command first:
//
//	bash perfbench/run.sh --workload ch-distance --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 10            # spread of every workload
//	bash perfbench/run.sh --workload tnr-route --smoke         # DE preset, one second
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name: {"value":..., "unit":...}}}.
// See README.md for the workloads and the map from layers to end-to-end
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"roadnet"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the settings of one run.
type options struct {
	seconds int
	trace   bool
	spserve string
	workdir string
}

const (
	builds        = 3               // index builds per run; build_cpu_s is their median
	setupLaunches = 11              // spserve starts per run; setup_s is their median
	warmup        = 1 * time.Second // open-loop traffic before the timed window
	rttSamples    = 200             // /healthz round trips for net.rtt_us
)

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: ch-distance, tnr-route or ch-matrix (all of them for --steady when empty)")
		seed    = flag.Int64("seed", 1, "seed of the query pairs, coordinates and arrival times")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 times each layer in-process and prints the per-layer metrics")
		spBin   = flag.String("spserve", "", "spserve binary to benchmark")
		workdir = flag.String("workdir", "", "directory for index files, server logs and traces")
		smoke   = flag.Bool("smoke", false, "run the workload on the DE preset at a tenth of its rate, for one second")
		steady  = flag.Int("steady", 0, "repeat each workload this many times on seeds seed, seed+1, ... and print each end-to-end metric's median and quartiles beside its bound in BENCHMARK.json")
	)
	flag.Parse()
	if *spBin == "" || *workdir == "" {
		fail(fmt.Errorf("--spserve and --workdir are required (run.sh passes them)"))
	}
	opt := options{seconds: *seconds, trace: *trace == 1, spserve: *spBin, workdir: *workdir}
	if *steady > 0 {
		if err := steadiness(*wlName, *seed, *steady, opt); err != nil {
			fail(err)
		}
		return
	}
	w, err := workloadByName(*wlName)
	if err != nil {
		fail(err)
	}
	if *smoke {
		w = w.smoke()
		opt.seconds = 1
	}
	res, err := run(w, *seed, opt)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runFiles are the files one run builds and spserve loads.
type runFiles struct {
	dir, graph, index, rtree, log string
}

// run performs one benchmark run of w on seed.
func run(w workload, seed int64, opt options) (*result, error) {
	dir := filepath.Join(opt.workdir, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files := runFiles{
		dir:   dir,
		graph: filepath.Join(dir, "graph.bin"),
		index: filepath.Join(dir, "index.bin"),
		rtree: filepath.Join(dir, "rtree.bin"),
		log:   filepath.Join(dir, "spserve.log"),
	}
	nproc := runtime.NumCPU()
	report := func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }
	report("workload %s: %s on %s, %s, %.0f req/s offered, seed %d, %d s timed after %v warm-up, %d connections",
		w.name, w.method, w.preset, w.kind, w.rate, seed, opt.seconds, warmup, nproc)

	// Inputs: the preset network, the index built through the public build
	// call, and the graph and R-tree files spserve can load prebuilt.
	g, err := roadnet.GeneratePreset(w.preset)
	if err != nil {
		return nil, err
	}
	// Preprocessing is timed as the CPU this process spends building, which
	// the host's steal time does not inflate; the wall times are reported
	// beside it.
	var built roadnet.Index
	var buildCPUs, buildWalls []time.Duration
	for i := 0; i < builds; i++ {
		built = nil // let the previous build be collected before timing the next
		runtime.GC()
		cpu0, start := processCPU(), time.Now()
		built, err = roadnet.NewIndex(w.method, g, roadnet.Config{})
		if err != nil {
			return nil, err
		}
		buildWalls = append(buildWalls, time.Since(start))
		buildCPUs = append(buildCPUs, processCPU()-cpu0)
	}
	buildCPU := quantile(buildCPUs, 0.5)
	if err := saveTo(files.index, func(f *os.File) error { return roadnet.SaveIndex(built, f) }); err != nil {
		return nil, err
	}
	if err := saveTo(files.graph, func(f *os.File) error { return roadnet.SaveGraph(f, g) }); err != nil {
		return nil, err
	}
	if err := saveTo(files.rtree, func(f *os.File) error { return roadnet.SaveRTree(f, roadnet.NewSpatialLocator(g).Tree()) }); err != nil {
		return nil, err
	}
	st, err := os.Stat(files.index)
	if err != nil {
		return nil, err
	}
	indexMB := float64(st.Size()) / 1e6

	pool, err := buildPool(w, g, seed)
	if err != nil {
		return nil, err
	}
	fillOracle(g, pool, nproc)
	checkFn := func(r *request, body []byte) error { return check(g, w.kind, r, body) }
	report("pool: %d distinct requests, %v per Q bucket, oracle: plain Dijkstra from %d sources",
		len(pool), bucketCounts(pool), len(distinctSources(pool)))

	// Set-up: spawn spserve on the prebuilt files until /readyz answers,
	// several times; the last start serves the load.
	args := []string{"-method", string(w.method), "-graph", files.graph, "-index", files.index, "-rtree", files.rtree}
	var setups []time.Duration
	var srv *spserve
	for i := 0; i < setupLaunches; i++ {
		s, d, err := startServer(opt.spserve, args, files.log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if i < setupLaunches-1 {
			s.stop()
			continue
		}
		srv = s
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	verified, failed, wrong, err := verifyPass(srv.addr, pool, nproc, checkFn)
	if err != nil {
		return nil, err
	}
	rttMedian, err := rtt(srv.addr, rttSamples)
	if err != nil {
		return nil, err
	}
	window := time.Duration(opt.seconds) * time.Second
	rng := rand.New(rand.NewSource(seed))
	sched := poissonSchedule(w.rate, warmup+window, len(pool), rng)
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	pid := srv.pid()
	load, err := openLoop(srv.addr, sched, warmup, window, nproc, pool, verified, checkFn,
		func() (time.Duration, error) { return cpuTime(pid) }, tr)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	res := &result{
		Correct:   len(wrong)+len(load.wrong) == 0,
		Attempted: len(pool) + load.attempted,
		Failed:    failed + load.failed,
		Metrics:   map[string]metric{},
	}
	for _, e := range append(wrong, load.wrong...) {
		report("WRONG: %v", e)
	}
	p10, p50, p99 := quantile(load.latency, 0.10), quantile(load.latency, 0.50), quantile(load.latency, 0.99)
	achieved := float64(load.timed-load.failed) / max(window, load.lastDone).Seconds()
	report("timed: %d requests, %d failed, offered %.1f req/s, achieved %.1f req/s, backlog %d at window end, %d connections opened",
		load.timed, load.failed, float64(load.timed)/window.Seconds(), achieved, load.backlog, load.conns)
	report("latency from due time: p10 %.3f ms, p50 %.3f ms, p99 %.3f ms over %d samples (%d beyond p99); generator late p50 %.3f ms, p99 %.3f ms",
		ms(p10), ms(p50), ms(p99), len(load.latency), len(load.latency)/100, ms(quantile(load.late, 0.5)), ms(quantile(load.late, 0.99)))
	report("server: %.1f µs CPU per request (%v over %d requests), peak RSS %.1f MB, setup %v (median of %v)",
		us(load.cpu)/float64(load.timed), load.cpu, load.timed, float64(rss)/1e6, quantile(setups, 0.5), setups)
	report("index: built on %v CPU (median of %v; wall %v), %.2f MB on disk; net: /healthz round trip %.1f µs; host steal %v during the load",
		buildCPU, buildCPUs, buildWalls, indexMB, us(rttMedian), load.steal)
	report("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)

	if !opt.trace {
		set := metricSet(res.Metrics)
		set.set("cpu_us_per_req", us(load.cpu)/float64(load.timed), "us")
		set.set("rss_mb", float64(rss)/1e6, "MB")
		set.set("setup_s", quantile(setups, 0.5).Seconds(), "s")
		set.set("build_cpu_s", buildCPU.Seconds(), "s")
		set.set("index_mb", indexMB, "MB")
		return res, nil
	}

	layers := metricSet{}
	for _, l := range layerNames {
		layers.set(l.name, 0, l.unit)
	}
	layers.set("net.rtt_us", us(rttMedian), "us")
	layers.set("loadgen.late_ms", ms(quantile(load.late, 0.99)), "ms")
	layers.set("p10_ms", ms(p10), "ms")
	layers.set("p50_ms", ms(p50), "ms")
	layers.set("p99_ms", ms(p99), "ms")
	if err := probeLayers(w, files, built, pool, verified, tr, layers); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(dir, fmt.Sprintf("trace-seed%d.jsonl", seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	report("trace: %d spans in %s", len(tr.spans), tracePath)
	for _, l := range layerNames {
		report("layer %-22s %14.4f %s", l.name, layers[l.name].Value, l.unit)
	}
	res.Metrics = layers
	return res, nil
}

// saveTo creates path and writes it with save, checking every error.
func saveTo(path string, save func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
