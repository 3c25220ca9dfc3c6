package serve

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWatchReloadsOnFileChange drives the -watch path under live
// batcher traffic, in the style of TestHotReloadDuringTraffic: a
// watcher polls the model file, the file is atomically replaced with
// new weights, and every in-flight response must stay bit-identical to
// the direct scoring of whichever version served it while the watcher
// converges on the final weights with zero downtime.
func TestWatchReloadsOnFileChange(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.flowmodel")
	v1, v2 := testModel("m", 1), testModel("m", 2)
	if err := SaveModel(path, v1); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(loaded)

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

	const perClient = 30
	flows := v1.Space.RandomUnique(rand.New(rand.NewSource(4)), perClient)
	wantBySeed := [][][]float64{directProbs(v1, flows), directProbs(v2, flows)}

	b := NewBatcher(func() (*Model, error) { return reg.Get("m") },
		BatcherConfig{MaxBatch: 16, QueueCap: 1024, Workers: 1})
	defer b.Close()

	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pred, err := b.Submit(context.Background(), v1.EncodeFlow(flows[i]))
				if err != nil {
					errs <- fmt.Errorf("client %d flow %d: %v", c, i, err)
					return
				}
				want := wantBySeed[(pred.Model.Version+1)%2][i]
				if !sameProbs(pred.Probs, want) {
					errs <- fmt.Errorf("client %d flow %d: response does not match version %d scoring",
						c, i, pred.Model.Version)
					return
				}
			}
		}(c)
	}

	// Alternate the weight sets on disk; the watcher must pick each
	// change up by itself — no explicit Reload calls here.
	const writes = 3
	for i := 0; i < writes; i++ {
		src := v2
		if i%2 == 1 {
			src = v1
		}
		if err := SaveModel(path, src); err != nil {
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
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cur, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != writes+1 {
		t.Fatalf("final version %d, want %d", cur.Version, writes+1)
	}
	// Traffic after the last watched swap serves the final weights (v2
	// was written last).
	pred, err := b.Submit(context.Background(), v1.EncodeFlow(flows[0]))
	if err != nil {
		t.Fatal(err)
	}
	if pred.Model.Version != writes+1 || !sameProbs(pred.Probs, wantBySeed[(pred.Model.Version+1)%2][0]) {
		t.Fatalf("post-watch traffic served v%d with stale weights", pred.Model.Version)
	}

	// A vanished file must not kill the watcher or the served snapshot.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := b.Submit(context.Background(), v1.EncodeFlow(flows[0])); err != nil {
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
