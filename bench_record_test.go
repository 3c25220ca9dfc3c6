// Shared benchmark-record plumbing. Each inference benchmark appends a
// timestamped entry to its JSON trajectory file (BENCH_predict32.json)
// instead of overwriting it, so the repo accumulates a perf history —
// one data point per run, tagged with the commit and platform it was
// measured on. A legacy single-object file from the pre-trajectory
// format is migrated by becoming the first entry of the array.
package flowgen

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"flowgen/internal/tensor"
)

// benchEntry is one point on a benchmark trajectory. Rates are flows
// classified per second through each precision engine; fields a
// benchmark does not measure stay zero and are omitted from the JSON.
type benchEntry struct {
	Bench           string  `json:"bench"`
	Time            string  `json:"time"`
	GitSHA          string  `json:"git_sha"`
	GOOS            string  `json:"goos"`
	GOARCH          string  `json:"goarch"`
	SIMD            string  `json:"simd"`                   // the process's kernel tier
	CPUFeatures     string  `json:"cpu_features,omitempty"` // detected vector features
	Arch            string  `json:"arch"`
	PoolFlows       int     `json:"pool_flows,omitempty"`
	F64FlowsPerS    float64 `json:"f64_flows_per_sec,omitempty"`
	F32FlowsPerS    float64 `json:"f32_flows_per_sec,omitempty"`
	SpeedupF32VsF64 float64 `json:"speedup_f32_vs_f64,omitempty"`
	ArgmaxTies      int     `json:"argmax_ties_excluded"`
	MaxProbDrift    float64 `json:"max_abs_prob_drift_vs_f64,omitempty"`
	ServeF32PerS    float64 `json:"serve_f32_flows_per_sec,omitempty"`
	ServeSpeedup    float64 `json:"serve_speedup_f32_vs_f64,omitempty"`
}

// gitSHA returns the short commit hash of the working tree, or
// "unknown" when the benchmark runs outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// appendBenchEntry stamps the entry (time, commit, platform) and
// appends it to the trajectory at path.
func appendBenchEntry(b *testing.B, path string, e benchEntry) {
	e.Time = time.Now().UTC().Format(time.RFC3339)
	e.GitSHA = gitSHA()
	e.GOOS, e.GOARCH = runtime.GOOS, runtime.GOARCH
	e.SIMD = tensor.ActiveSIMD().String()
	e.CPUFeatures = tensor.CPUFeatures()
	var hist []json.RawMessage
	if raw, err := os.ReadFile(path); err == nil {
		if json.Unmarshal(raw, &hist) != nil {
			// Pre-trajectory format: one record object. Keep it as the
			// oldest point instead of dropping the measurement.
			var legacy json.RawMessage
			if json.Unmarshal(raw, &legacy) == nil && len(legacy) > 0 {
				hist = []json.RawMessage{legacy}
			}
		}
	}
	rec, err := json.Marshal(e)
	if err != nil {
		b.Fatal(err)
	}
	hist = append(hist, rec)
	out, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		b.Logf("could not write %s: %v", path, err)
	}
}
