package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness command reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each workload n times on seeds seed..seed+n-1, each run
// a fresh process as the benchmark is normally invoked, then once traced,
// and prints every end-to-end metric's median and quartiles beside its
// bound, and the tracing overhead: the traced run's p50 latency against
// the median p50 of the untraced runs.
func steadiness(only string, seed int64, n int, opt options) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	list := workloads
	if only != "" {
		w, err := workloadByName(only)
		if err != nil {
			return err
		}
		list = []workload{w}
	}
	for _, w := range list {
		values := map[string][]float64{}
		var p50s []float64
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			res, p50, err := runChild(self, w.name, s, opt, false)
			if err != nil {
				return err
			}
			p50s = append(p50s, p50)
			fmt.Printf("# %s seed %d: attempted %d failed %d correct %v", w.name, s, res.Attempted, res.Failed, res.Correct)
			for _, m := range spec.EndToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
				fmt.Printf(" %s=%.4g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
		traced, tracedP50, err := runChild(self, w.name, seed, opt, true)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-15s %12s %12s %12s %8s %8s\n", w.name, "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			q1, med, q3 := quartiles(values[m.Name])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag := ""
			if spread > m.Bound/3 {
				flag = "  (spread above a third of the bound)"
			}
			fmt.Printf("%-12s %-15s %12.5g %12.5g %12.5g %7.1f%% %7.1f%%%s\n", "", m.Name+" ("+m.Unit+")", q1, med, q3, 100*spread, 100*m.Bound, flag)
		}
		q1, p50, q3 := quartiles(p50s)
		fmt.Printf("%-12s %-15s %12.5g %12.5g %12.5g %7.1f%%  (not bounded)\n", "", "p50 latency (ms)", q1, p50, q3, 100*(q3-q1)/p50)
		fmt.Printf("%-12s tracing overhead on p50: %.4f ms traced (seed %d) vs %.4f ms median untraced = %+.4f ms\n", "", tracedP50, seed, p50, tracedP50-p50)
		for _, l := range layerNames {
			fmt.Printf("%-12s traced %-22s %12.5g %s\n", "", l.name, traced.Metrics[l.name].Value, l.unit)
		}
	}
	return nil
}

// p50Line finds the p50 latency in a run's report.
var p50Line = regexp.MustCompile(`latency from due time: p10 [0-9.]+ ms, p50 ([0-9.]+) ms`)

// runChild runs this command once as its own process and parses the
// result from the last line of its output, and the p50 latency from its
// report.
func runChild(self, name string, seed int64, opt options, trace bool) (*result, float64, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-spserve", opt.spserve, "-workdir", opt.workdir, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(opt.seconds), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	m := p50Line.FindSubmatch(out)
	if m == nil {
		return nil, 0, fmt.Errorf("%s seed %d: no latency line in the report", name, seed)
	}
	p50, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		return nil, 0, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, 0, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	return &res, p50, nil
}

// quartiles returns the first quartile, median and third quartile of vs
// by the same rule as Python's statistics.quantiles(vs, n=4) (exclusive).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4 (1-based), interpolated between neighbours.
		m := float64(j) * float64(n+1) / 4
		k := int(m)
		frac := m - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(2), at(3)
}
