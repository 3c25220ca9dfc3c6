package serve

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flowgen/internal/fault"
)

// TestWatchReloadsOnFileChange drives the -watch path under live HTTP
// traffic, as TestHotReloadDuringTraffic does: a watcher polls the
// model file, the file is atomically replaced with alternating weight
// sets, and every row must stay bit-identical to the direct scoring of
// the version its response reports while the watcher converges on the
// final weights with zero downtime.
func TestWatchReloadsOnFileChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.flowmodel")
	sets := [2]*Model{testModel("m", 1), testModel("m", 2)}
	if err := SaveModel(path, sets[0]); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, loaded)
	reg := s.Registry

	var reloadsSeen atomic.Int64
	watcher := NewWatcher(reg) // baseline taken synchronously, before any change below
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		watcher.Run(watchCtx, 2*time.Millisecond, func(ev WatchEvent) {
			if ev.Err != nil {
				t.Errorf("watch reload failed: %v", ev.Err)
				return
			}
			reloadsSeen.Add(1)
		})
	}()

	flows := sets[0].Space.RandomUnique(rand.New(rand.NewSource(4)), 12)
	type result struct {
		cached int64
		err    error
	}
	traffic := make(chan result, 1)
	go func() {
		cached, err := alternatingTraffic(ts.URL, sets, flows, 4, 30)
		traffic <- result{cached, err}
	}()

	// Alternate the weight sets on disk; the watcher must pick each
	// change up by itself — no explicit Reload calls here.
	const writes = 3
	for i := 0; i < writes; i++ {
		if err := SaveModel(path, sets[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for reloadsSeen.Load() < int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("watcher missed file change %d (saw %d reloads)", i+1, reloadsSeen.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	res := <-traffic
	if res.err != nil {
		t.Fatal(res.err)
	}
	t.Logf("%d of the traffic's rows came from the cache", res.cached)

	const final = writes + 1
	text := flows[0].String(sets[0].Space)
	wantServedBy(t, ts.URL, text, final, directProbs(sets[(final+1)%2], flows[:1])[0])

	// A vanished file must not kill the watcher or the served snapshot.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := predictHTTP(ts.URL, []string{text}); err != nil {
		t.Fatalf("serving broke after the model file vanished: %v", err)
	}
	stopWatch()
	select {
	case <-watchDone:
	case <-time.After(time.Second):
		t.Fatal("watcher did not stop on context cancellation")
	}
}

// TestWatchRebaselinesAfterRegister: a snapshot registered since the
// watcher's last poll already serves its file's bytes, so the poll must
// re-baseline instead of loading them again as one more version — both
// when the loop publishes (save the candidate to the model's own file,
// then register it) and after an explicit reload. A file change nobody
// registered is still reloaded.
func TestWatchRebaselinesAfterRegister(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.flowmodel")
	if err := SaveModel(path, testModel("m", 1)); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register(loaded)
	w := NewWatcher(reg)
	wantVersion := func(step string, want int) {
		t.Helper()
		cur, err := reg.Get("m")
		if err != nil {
			t.Fatal(err)
		}
		if cur.Version != want {
			t.Fatalf("%s: version %d, want %d", step, cur.Version, want)
		}
	}

	next := testModel("m", 2)
	next.Path = path
	if err := SaveModel(path, next); err != nil {
		t.Fatal(err)
	}
	reg.Register(next)
	w.poll(nil)
	wantVersion("loop publish", 2)

	if err := SaveModel(path, testModel("m", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Reload("m"); err != nil {
		t.Fatal(err)
	}
	w.poll(nil)
	wantVersion("explicit reload", 3)

	if err := SaveModel(path, testModel("m", 4)); err != nil {
		t.Fatal(err)
	}
	w.poll(nil)
	wantVersion("file change", 4)
	w.poll(nil)
	wantVersion("unchanged file", 4)
}

// TestWatchKeepsServingOnBadFile: a watched file rewritten with a pool
// stride of 0, which once panicked the watcher's goroutine and ended
// the process, is that reload's failure, and so is a panic while
// reloading; each time the previous version keeps serving, and the
// next good file is loaded.
func TestWatchKeepsServingOnBadFile(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "m.flowmodel")
	first := testModel("m", 1)
	if err := SaveModel(path, first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register(loaded)
	w := NewWatcher(reg)
	flows := first.Space.RandomUnique(rand.New(rand.NewSource(3)), 4)
	want := directProbs(first, flows)
	poll := func(step string, wantVersion int, wantErr string) {
		t.Helper()
		var events []WatchEvent
		w.poll(func(ev WatchEvent) { events = append(events, ev) })
		if len(events) != 1 || (wantErr == "") != (events[0].Err == nil) ||
			(wantErr != "" && !strings.Contains(events[0].Err.Error(), wantErr)) {
			t.Fatalf("%s: watch events %+v, want one with error %q", step, events, wantErr)
		}
		cur, err := reg.Get("m")
		if err != nil {
			t.Fatal(err)
		}
		if cur.Version != wantVersion {
			t.Fatalf("%s: serving version %d, want %d", step, cur.Version, wantVersion)
		}
	}
	// rewrite replaces the file as SaveModel does, by rename.
	rewrite := func(data []byte) {
		t.Helper()
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}

	rewrite(mutatedFile(t, testModel("m", 2), func(s *modelSnapshot) { s.PoolStride = 0 }))
	poll("pool stride 0", 1, "PoolStride 0")

	if err := fault.Set("serve.registry.load=panic", 1); err != nil {
		t.Fatal(err)
	}
	rewrite(mutatedFile(t, testModel("m", 2), func(*modelSnapshot) {}))
	poll("reload panic", 1, "panicked")
	if n := reg.ReloadFails(); n != 2 {
		t.Fatalf("%d reload failures counted, want 2", n)
	}
	cur, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range directProbs(cur, flows) {
		if !sameProbs(p, want[i]) {
			t.Fatalf("flow %d: the kept version scores differently", i)
		}
	}

	fault.Reset()
	poll("good file", 2, "")
}
