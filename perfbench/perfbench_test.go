package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// buildSpserve compiles the server under test into a temporary directory.
func buildSpserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spserve")
	out, err := exec.Command("go", "build", "-o", bin, "roadnet/cmd/spserve").CombinedOutput()
	if err != nil {
		t.Fatalf("building spserve: %v\n%s", err, out)
	}
	return bin
}

func specMetrics(t *testing.T, section string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

func checkKeys(t *testing.T, res *result, want []string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
}

// TestSmoke runs every workload on the DE preset, end to end and traced,
// and requires every answer to be right and every metric to be printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts spserve processes")
	}
	bin := buildSpserve(t)
	e2e, layers := specMetrics(t, "end_to_end"), specMetrics(t, "per_layer")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				opt := options{seconds: 1, trace: trace, spserve: bin, workdir: t.TempDir()}
				res, err := run(w.smoke(), 1, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace %v: correct %v, failed %d of %d", trace, res.Correct, res.Failed, res.Attempted)
				}
				if !trace {
					checkKeys(t, res, e2e)
					continue
				}
				checkKeys(t, res, layers)
				if res.Metrics["ch.settled"].Value <= 0 || res.Metrics["server.resp_bytes"].Value <= 0 {
					t.Errorf("traced run counted no work: %+v", res.Metrics)
				}
			}
		})
	}
}

// TestExactCountsRepeat runs each workload traced twice on one seed: the
// exact counts must repeat. Each run builds its index anew, so this also
// requires the index builds to be deterministic.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts spserve processes")
	}
	bin := buildSpserve(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := options{seconds: 1, trace: true, spserve: bin, workdir: t.TempDir()}
			a, err := run(w.smoke(), 7, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(w.smoke(), 7, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"ch.settled", "graph.path_hops", "tnr.table_hits", "tnr.fallbacks", "server.resp_bytes"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// pathGraph is 0 -(5)- 1 -(7)- 2 plus a long edge 0 -(20)- 2.
func pathGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}},
		[]graph.Edge{{U: 0, V: 1, Weight: 5}, {U: 1, V: 2, Weight: 7}, {U: 0, V: 2, Weight: 20}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOracleChecks(t *testing.T) {
	g := pathGraph(t)
	if d := dijkstraTo(g, 0, []graph.VertexID{2, 1}); d[0] != 12 || d[1] != 5 {
		t.Fatalf("dijkstraTo = %v, want [12 5]", d)
	}
	r := &request{from: 0, to: 2, dist: 12}
	good := `{"from":0,"to":2,"reachable":true,"distance":12,"vertices":[0,1,2],"coords":[[0,0],[10,0],[20,0]]}`
	if err := check(g, "route", r, []byte(good)); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
	for name, body := range map[string]string{
		"not shortest":  `{"from":0,"to":2,"reachable":true,"distance":20,"vertices":[0,2],"coords":[[0,0],[20,0]]}`,
		"not an edge":   `{"from":0,"to":2,"reachable":true,"distance":12,"vertices":[0,2,2],"coords":[[0,0],[20,0],[20,0]]}`,
		"wrong weights": `{"from":0,"to":2,"reachable":true,"distance":12,"vertices":[0,1,0,1,2],"coords":[[0,0],[10,0],[0,0],[10,0],[20,0]]}`,
		"wrong coords":  `{"from":0,"to":2,"reachable":true,"distance":12,"vertices":[0,1,2],"coords":[[0,0],[10,1],[20,0]]}`,
		"wrong end":     `{"from":0,"to":2,"reachable":true,"distance":5,"vertices":[0,1],"coords":[[0,0],[10,0]]}`,
	} {
		if err := check(g, "route", r, []byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	pt := geom.Point{X: 9, Y: 1}
	snapped := &request{from: 1, to: 2, dist: 7, fromPt: &pt}
	if err := check(g, "distance", snapped, []byte(`{"from":1,"to":2,"reachable":true,"distance":7}`)); err != nil {
		t.Errorf("right snap rejected: %v", err)
	}
	if err := check(g, "distance", snapped, []byte(`{"from":0,"to":2,"reachable":true,"distance":12}`)); err == nil || !strings.Contains(err.Error(), "nearest") {
		t.Errorf("wrong snap: %v", err)
	}

	m := &request{sources: []graph.VertexID{0}, targets: []graph.VertexID{1, 2}, table: [][]int64{{5, 12}}}
	if err := check(g, "matrix", m, []byte(`{"sources":[0],"targets":[1,2],"distances":[[5,12]]}`)); err != nil {
		t.Errorf("right matrix rejected: %v", err)
	}
	if err := check(g, "matrix", m, []byte(`{"sources":[0],"targets":[1,2],"distances":[[5,13]]}`)); err == nil {
		t.Error("wrong matrix cell accepted")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
