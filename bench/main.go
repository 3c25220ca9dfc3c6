// Command bench is flowgen's end-to-end and per-layer benchmark. It
// drives four workloads through the repository's public entry points:
//
//	paper_round       core.Framework.Run on alu8 (label, fit, train, select)
//	exhaustive_label  memoized EvaluateAll over an exhaustive flow subtree of miniaes2
//	serve_predict     /v1/predict at fixed open-loop rates, then at saturation
//	serve_loop        predicts and recommends at 250 req/s while the online loop retrains
//
// One workload per run, built and started by run.sh from the repository
// root:
//
//	bash bench/run.sh --workload serve_predict --seed 3 --seconds 20 --trace 0
//
// Without --workload it runs all four, each in its own process, and
// -out writes their results, stamped with the machine and commit. The
// last line of standard output is the JSON result; the lines before it
// are "workload metric value unit". With --trace 1 the run measures the
// workload untraced and then traced, reports the per-layer metrics and
// writes the spans to -spans. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"flowgen/internal/tensor"
)

// buildDir holds everything a run leaves behind (build cache, binary,
// span files, the loop's journal), relative to the repository root.
const buildDir = ".bench_build"

type workload struct {
	name string
	fn   func(*run) error
}

var workloads = []workload{
	{"paper_round", paperRound},
	{"exhaustive_label", exhaustiveLabel},
	{"serve_predict", servePredict},
	{"serve_loop", serveLoop},
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs all four, each in its own process")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 makes this the traced run: per-layer metrics, spans written to -spans")
	spans := flag.String("spans", "", "span file of a traced run (default "+buildDir+"/spans-<workload>-<seed>.json)")
	out := flag.String("out", "", "also write the stamped results to this JSON file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: want -seconds ≥ 1, -trace 0 or 1, and no arguments")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second

	results := map[string]result{}
	ok := true
	if *name == "" {
		for _, w := range workloads {
			res, err := runChild(w.name, *seed, *seconds, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				ok = false
				continue
			}
			results[w.name] = res
			ok = ok && res.Correct
		}
	} else {
		w, found := lookup(*name)
		if !found {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		path := *spans
		if path == "" {
			path = fmt.Sprintf("%s/spans-%s-%d.json", buildDir, w.name, *seed)
		}
		res, err := runWorkload(w, *seed, dur, *trace == 1, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		results[w.name] = res
		ok = res.Correct
	}
	if *out != "" {
		if err := writeResults(*out, *seed, *seconds, *trace == 1, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measure runs one pass of a workload and adds the process metrics.
func measure(w workload, seed int64, dur time.Duration, tr *tracer) (*run, error) {
	r := newRun(seed, dur, tr)
	a := sampleProc()
	rss := watchRSS()
	err := w.fn(r)
	typical := rss()
	if err != nil {
		return nil, err
	}
	b := sampleProc()
	r.setRuntime(a, b)
	r.set("rss_mb", typical, "MB")
	r.set("peak_rss_mb", float64(b.maxKB)/1024, "MB")
	r.set("error_rate", float64(r.failed)/float64(max(r.ops, 1)), "ratio")
	r.set("harness.ops", float64(r.ops), "count")
	r.set("harness.ops_failed", float64(r.failed), "count")
	return r, nil
}

// runWorkload measures one workload and prints every metric it took. An
// untraced run reports the end-to-end metrics; a traced run measures
// the workload untraced, then traced, and reports the per-layer ones.
func runWorkload(w workload, seed int64, dur time.Duration, traced bool, spansPath string) (result, error) {
	r, err := measure(w, seed, dur, nil)
	if err != nil {
		return result{}, err
	}
	want := endToEnd
	attempted, failed := r.ops, r.failed
	if traced {
		base := r
		if r, err = measure(w, seed, dur, newTracer()); err != nil {
			return result{}, err
		}
		r.set("harness.trace_overhead_frac", r.metrics["latency_ms"].Value/base.metrics["latency_ms"].Value-1, "ratio")
		if err := r.tr.write(spansPath); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		want = perLayer
		attempted, failed = attempted+r.ops, failed+r.failed
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("%s %s %s %s\n", w.name, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok && traced:
			m = metric{0, d.Unit} // a layer this workload does not reach
		case !ok:
			fmt.Fprintf(os.Stderr, "bench: %s did not measure %s\n", w.name, d.Name)
			res.Failed++
			continue
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			fmt.Fprintf(os.Stderr, "bench: %s measured %s = %v\n", w.name, d.Name, m.Value)
			res.Failed++
			continue
		}
		res.Metrics[d.Name] = metric{m.Value, d.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runChild runs one workload in a fresh process of this binary, so its
// heap and peak RSS are its own, and returns its result line.
func runChild(name string, seed int64, seconds, trace int) (result, error) {
	cmd := exec.Command(os.Args[0], "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var res result
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		return res, fmt.Errorf("no result line after %q (exit: %v)", last, err)
	}
	return res, err
}

// stamp identifies where and from what a results file was measured, so
// runs from different machines are never compared.
type stamp struct {
	Time        string `json:"time"`
	GitSHA      string `json:"git_sha"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NProc       int    `json:"nproc"`
	SIMD        string `json:"simd"`
	CPUFeatures string `json:"cpu_features"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Traced      bool   `json:"traced"`
}

func writeResults(path string, seed int64, seconds int, traced bool, results map[string]result) error {
	sha := "unknown" // outside a git checkout
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(b))
	}
	file := struct {
		stamp
		Results map[string]result `json:"results"`
	}{stamp{
		Time: time.Now().UTC().Format(time.RFC3339), GitSHA: sha,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NProc: runtime.NumCPU(),
		SIMD: tensor.ActiveSIMD().String(), CPUFeatures: tensor.CPUFeatures(),
		Seed: seed, Seconds: seconds, Traced: traced,
	}, results}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
