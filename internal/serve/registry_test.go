package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/synth"
)

// TestModelRoundTrip proves a model survives serialization: the loaded
// network scores flows bit-identically to the original, under the same
// labeling definition.
func TestModelRoundTrip(t *testing.T) {
	m := testModel("rt", 7)
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "rt" || back.Space.N() != m.Space.N() || back.Space.M != m.Space.M {
		t.Fatalf("metadata lost: %+v", back)
	}
	if back.Arch != m.Arch {
		t.Fatalf("architecture lost: %+v != %+v", back.Arch, m.Arch)
	}
	m.Metrics = []synth.Metric{synth.MetricDelay, synth.MetricArea}
	buf.Reset()
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	if back, err = ReadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Metrics, m.Metrics) || !reflect.DeepEqual(back.Percentiles, m.Percentiles) {
		t.Fatalf("labeling definition lost: %v at %v, want %v at %v",
			back.Metrics, back.Percentiles, m.Metrics, m.Percentiles)
	}
	flows := m.Space.RandomUnique(rand.New(rand.NewSource(1)), 5)
	want, got := directProbs(m, flows), directProbs(back, flows)
	for i := range want {
		if !sameProbs(want[i], got[i]) {
			t.Fatalf("flow %d: reloaded model scores differently", i)
		}
	}
}

// TestSaveLoadModelFile covers the file path helpers including the
// atomic write and the recorded reload path, and refuses a file whose
// network input does not hold its space's encoding, whose percentiles
// do not define its network's classes or whose architecture
// nn.ArchConfig.Validate refuses.
func TestSaveLoadModelFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.flowmodel")
	m := testModel("disk", 3)
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Path != path {
		t.Fatalf("loaded model path %q, want %q", back.Path, path)
	}
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("want an error for a missing file")
	}
	// 6 letters at m=1 encode as 6x6; the network takes 4x8.
	bad := testModel("bad", 3)
	bad.Space = flow.NewSpace([]string{"a", "b", "c", "d", "e", "f"}, 1)
	if err := SaveModel(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(path); err == nil {
		t.Fatal("want an error for a 4x8 network over a 6x6 encoding")
	}
	// One cut defines two classes; the network has five.
	bad = testModel("bad", 3)
	bad.Percentiles = []float64{50}
	if err := SaveModel(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(path); err == nil {
		t.Fatal("want an error for one percentile over a five-class network")
	}
	for _, p := range probeEdits {
		if err := os.WriteFile(path, mutatedFile(t, BootstrapModel("probe"), p.edit), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModelFile(path); err == nil {
			t.Errorf("%s: want an error", p.name)
		}
	}
	// Two letters at m = 2^(bits-2)+9 encode as 4m = 36 values modulo
	// 2^bits, as six letters at m=1 do, but no flow of that space fits.
	six := testModel("wrap", 3)
	six.Space = flow.NewSpace([]string{"a", "b", "c", "d", "e", "f"}, 1)
	six.Arch.InH, six.Arch.InW = 6, 6
	six.Net = six.Arch.Build(3)
	wrap := mutatedFile(t, six, func(s *modelSnapshot) { s.Alphabet, s.M = []string{"a", "b"}, math.MaxInt>>1+1+9 })
	if err := os.WriteFile(path, wrap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(path); err == nil {
		t.Error("want an error for a multiplicity whose encoding size wraps")
	}
}

// probeEdits break one architecture field of a model file. Before
// ReadModel validated architectures, the first three panicked in
// nn.ArchConfig.Build and the last loaded.
var probeEdits = []struct {
	name string
	edit func(*modelSnapshot)
}{
	{"pool stride 0", func(s *modelSnapshot) { s.PoolStride = 0 }},
	{"kernel height -1", func(s *modelSnapshot) { s.KH = -1 }},
	{"dense units -5", func(s *modelSnapshot) { s.DenseUnits = -5 }},
	{"dropout 2", func(s *modelSnapshot) { s.Dropout = 2 }},
}

// mutatedFile gives m's model file with edit applied to its snapshot.
func mutatedFile(tb testing.TB, m *Model, edit func(*modelSnapshot)) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		tb.Fatal(err)
	}
	var s modelSnapshot
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		tb.Fatal(err)
	}
	edit(&s)
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// legacySnapshot is modelSnapshot as model files were written before a
// model carried its labeling definition.
type legacySnapshot struct {
	Name       string
	Alphabet   []string
	M          int
	InH, InW   int
	KH, KW     int
	Filters    int
	PoolStride int
	LocalKH    int
	LocalC     int
	DenseUnits int
	Dropout    float64
	Act        string
	NumClasses int
	Weights    []byte
}

// legacyFile writes m in the format without a labeling definition.
func legacyFile(t *testing.T, m *Model) *bytes.Buffer {
	t.Helper()
	var cur bytes.Buffer
	if err := WriteModel(&cur, m); err != nil {
		t.Fatal(err)
	}
	var old legacySnapshot
	if err := gob.NewDecoder(&cur).Decode(&old); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&old); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestReadModelWithoutLabelingDefinition: a file from before models
// carried their labeling definition reads as what every such file was
// trained on, area under label.DefaultPercentiles, and scores as
// before; such a file over a network without seven classes is refused.
func TestReadModelWithoutLabelingDefinition(t *testing.T) {
	m := testModel("legacy", 4)
	m.Arch = nn.FastArch(7)
	m.Arch.InH, m.Arch.InW = 4, 8
	m.Net = m.Arch.Build(4)
	m.Metrics, m.Percentiles = []synth.Metric{synth.MetricDelay}, []float64{1, 2, 3, 4, 5, 6}
	back, err := ReadModel(legacyFile(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Metrics, []synth.Metric{synth.MetricArea}) ||
		!reflect.DeepEqual(back.Percentiles, label.DefaultPercentiles) {
		t.Fatalf("legacy file labels on %v at %v, want area at %v", back.Metrics, back.Percentiles, label.DefaultPercentiles)
	}
	flows := m.Space.RandomUnique(rand.New(rand.NewSource(2)), 5)
	want, got := directProbs(m, flows), directProbs(back, flows)
	for i := range want {
		if !sameProbs(want[i], got[i]) {
			t.Fatalf("flow %d: legacy file scores differently", i)
		}
	}
	if _, err := ReadModel(legacyFile(t, testModel("five", 4))); err == nil {
		t.Fatal("want an error for a legacy five-class file")
	}
}

// TestRegistrySemantics covers defaulting, version bumps, lock-free
// gets of swapped snapshots, and reload error cases.
func TestRegistrySemantics(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Get(""); err == nil {
		t.Fatal("empty registry must error")
	}
	a := reg.Register(testModel("a", 1))
	if a.Version != 1 {
		t.Fatalf("first registration version %d", a.Version)
	}
	if reg.DefaultName() != "a" {
		t.Fatal("first model must become the default")
	}
	b := reg.Register(testModel("b", 2))
	if got, _ := reg.Get(""); got != a {
		t.Fatal("default must stay the first model")
	}
	if err := reg.SetDefault("b"); err != nil {
		t.Fatal(err)
	}
	if got, _ := reg.Get(""); got != b {
		t.Fatal("SetDefault did not take")
	}
	if err := reg.SetDefault("nope"); err == nil {
		t.Fatal("SetDefault of an unknown model must error")
	}
	if _, err := reg.Get("nope"); err == nil {
		t.Fatal("unknown model must error")
	}

	a2 := reg.Register(testModel("a", 3))
	if a2.Version != 2 {
		t.Fatalf("re-registration version %d, want 2", a2.Version)
	}
	if got, _ := reg.Get("a"); got != a2 {
		t.Fatal("re-registration must swap the snapshot")
	}
	names := reg.List()
	if len(names) != 2 || names[0].Name != "a" || names[1].Name != "b" {
		t.Fatalf("list: %v", names)
	}

	// In-memory models cannot reload; unknown names error.
	if _, err := reg.Reload("a"); err == nil {
		t.Fatal("reloading an in-memory model must error")
	}
	if _, err := reg.Reload("ghost"); err == nil {
		t.Fatal("reloading an unknown model must error")
	}
}

// TestCacheLRU covers hits, version keying, eviction order and stats.
func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	p1, p2, p3 := []float64{1}, []float64{2}, []float64{3}
	c.Put("m", 1, "k1", p1)
	c.Put("m", 1, "k2", p2)
	if got, ok := c.Get("m", 1, "k1"); !ok || got[0] != 1 {
		t.Fatal("k1 must hit")
	}
	// A different model version is a different key.
	if _, ok := c.Get("m", 2, "k1"); ok {
		t.Fatal("a reloaded model must not serve stale scores")
	}
	// k1 was touched above, so inserting k3 evicts k2.
	c.Put("m", 1, "k3", p3)
	if _, ok := c.Get("m", 1, "k2"); ok {
		t.Fatal("k2 must have been evicted (LRU)")
	}
	if _, ok := c.Get("m", 1, "k1"); !ok {
		t.Fatal("k1 must survive (recently used)")
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", st.HitRate())
	}

	// Capacity 0 disables caching entirely.
	off := NewCache(0)
	off.Put("m", 1, "k", p1)
	if _, ok := off.Get("m", 1, "k"); ok {
		t.Fatal("disabled cache must miss")
	}
}

// TestF32PredictAllocationSizedToBatch pins the serving engine's per-call
// allocation: scoring one flow through the bootstrap model's f32
// predictor must allocate scratch for one sample, not a full prediction
// chunk. Most predicts carry one flow, so a chunk-sized scratch per
// call (~2.2 MB) dominated the serve path's allocation rate.
func TestF32PredictAllocationSizedToBatch(t *testing.T) {
	const calls, budget = 64, 128 << 10 // bytes per call
	m := BootstrapModel("alloc")
	pred, err := m.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	f := m.Space.Random(rand.New(rand.NewSource(1)))
	src := core.FlowSource(m.Space, []flow.Flow{f}, m.Arch.InH, m.Arch.InW)
	predict := func() {
		if _, err := pred.PredictStream(context.Background(), 1, 0, src); err != nil {
			t.Fatal(err)
		}
	}
	predict() // warm up lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		predict()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("PredictStream: %d B allocated per one-flow call", got)
	if got > budget {
		t.Errorf("PredictStream allocates %d B per one-flow call, budget %d B", got, budget)
	}
}
