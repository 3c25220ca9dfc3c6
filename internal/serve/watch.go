package serve

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime/debug"
	"time"
)

// WatchEvent reports one hot reload attempted by a Watcher.
type WatchEvent struct {
	Name string
	// Version of the freshly registered model (0 when Err != nil).
	Version int
	Err     error
}

// Watcher hot-reloads file-backed models when their source files
// change (flowserve -watch). Construction snapshots the current state
// of every backing file synchronously, so changes written after
// NewWatcher returns are never missed regardless of when Run gets
// scheduled; Run then polls and reloads through Registry.Reload.
type Watcher struct {
	reg  *Registry
	seen map[string]watchState
}

// watchState is what the watcher last saw of one model: its registered
// version and its file's fingerprint.
type watchState struct {
	version int
	mtime   time.Time
	size    int64
	ino     uint64
}

// stateOf fingerprints a model's file. SaveModel replaces the file by
// atomic rename, so every write lands a fresh inode — which catches
// even writes inside the same filesystem-timestamp tick, where mtime
// and size alone cannot tell two versions apart. On platforms without
// inode numbers (watch_fingerprint_other.go) the inode stays zero and
// mtime+size carry the comparison.
func stateOf(version int, fi os.FileInfo) watchState {
	return watchState{version: version, mtime: fi.ModTime(), size: fi.Size(), ino: inodeOf(fi)}
}

// NewWatcher baselines the registry's file-backed models. The files
// backing currently registered models are already loaded — only
// subsequent changes should trigger reloads.
func NewWatcher(reg *Registry) *Watcher {
	w := &Watcher{reg: reg, seen: map[string]watchState{}}
	for _, m := range reg.List() {
		if m.Path == "" {
			continue
		}
		if fi, err := os.Stat(m.Path); err == nil {
			w.seen[m.Name] = stateOf(m.Version, fi)
		}
	}
	return w
}

// Run polls every file-backed model's source file each interval and
// hot-reloads a model whenever the file changed (inode, mtime or size —
// SaveModel writes atomically via rename, so a change is always a
// complete new file). It blocks until ctx is cancelled; run it in a
// goroutine next to the server. onEvent, if non-nil, receives one
// event per attempted reload — including failures, which do not
// disturb the currently served snapshot and are retried on the next
// change. Models registered after Run starts are picked up on the next
// poll; their state at first sight is the baseline. A model whose
// registered version changed since the last poll is re-baselined, not
// reloaded: whoever registered it (the loop publishing the candidate it
// just saved to the model's file, an explicit reload) already serves
// the file's bytes.
func (w *Watcher) Run(ctx context.Context, interval time.Duration, onEvent func(WatchEvent)) {
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		w.poll(onEvent)
	}
}

// poll runs one scan-and-reload pass.
func (w *Watcher) poll(onEvent func(WatchEvent)) {
	for _, m := range w.reg.List() {
		if m.Path == "" {
			continue
		}
		fi, err := os.Stat(m.Path)
		if err != nil {
			// Transient (mid-rename) or the file vanished; keep serving
			// the loaded snapshot and keep watching.
			continue
		}
		cur := stateOf(m.Version, fi)
		prev, ok := w.seen[m.Name]
		if !ok || cur.version != prev.version {
			w.seen[m.Name] = cur // first sight, or registered since the last poll
			continue
		}
		if cur == prev {
			continue
		}
		fresh, err := w.reload(m.Name)
		if err == nil {
			// Record the new state only on success: a transient load
			// failure (fd pressure, permission blip) must be retried on
			// the next poll, not swallowed until the file changes again.
			// A persistently corrupt file therefore re-reports each
			// poll — loud beats silently serving stale weights.
			cur.version = fresh.Version
			w.seen[m.Name] = cur
		}
		if onEvent != nil {
			ev := WatchEvent{Name: m.Name, Err: err}
			if err == nil {
				ev.Version = fresh.Version
			}
			onEvent(ev)
		}
	}
}

// reload hot-reloads one model. The watcher runs outside any request's
// recover, so a panic while reloading would end the process; it becomes
// that model's reload failure instead, counted in ReloadFails like a
// load error, and the previous version keeps serving.
func (w *Watcher) reload(name string) (fresh *Model, err error) {
	defer func() {
		if p := recover(); p != nil {
			w.reg.reloadFails.Add(1)
			slog.Error("serve: watch reload panic recovered, previous version kept",
				"model", name, "panic", p, "stack", string(debug.Stack()))
			fresh, err = nil, fmt.Errorf("serve: reloading model %q panicked: %v", name, p)
		}
	}()
	return w.reg.Reload(name)
}
