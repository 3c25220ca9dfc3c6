// Command flowserve is the flow-recommendation service: it loads
// trained classifier models (written by flowgen -save-model) and serves
// JSON prediction and top-k angel/devil recommendation over HTTP,
// micro-batching concurrent requests through the batched GEMM engine.
//
//	flowserve -models ./models                  # serve every *.flowmodel in a directory
//	flowserve -model alu16.flowmodel            # serve one file
//	flowserve -bootstrap demo                   # untrained demo model, no files needed
//	flowserve -models ./models -watch 2s        # auto-reload models whose files change
//
// With -loop, the server closes the paper's flow-development cycle in
// the background: flows observed on the serving endpoints (plus
// explored samples) are labeled with true QoR against the named design,
// journaled, and the model is periodically retrained and re-published
// with a zero-downtime version bump.
//
//	flowserve -model alu16.flowmodel -loop alu16 -retrain-every 200
//
// Endpoints:
//
//	GET  /healthz                    liveness + model count
//	GET  /readyz                     readiness (503 while draining or modelless)
//	GET  /v1/models                  registered models (name, version, space, params)
//	GET  /v1/models/{name}           one model's metadata
//	POST /v1/models/{name}/reload    reload one model from its file
//	POST /v1/models/reload           {"name":"alu16"} — or {} to reload all file-backed
//	POST /v1/predict                 {"model":"","flows":["balance; rewrite; ..."]}
//	POST /v1/recommend               {"top_k":10,"pool":100000,"seed":7} or {"flows":[...]}
//	POST /v1/label                   {"flow":"...","area":812,"delay":403} — external ground truth
//	GET  /v1/loop/status             labeler/retrainer counters (404 unless -loop)
//	POST /v1/loop/drain              quiesce intake, flush labeler, fsync journal, report
//	GET  /v1/stats                   per-endpoint latency, batcher, cache and loop counters
//	GET  /metrics                    Prometheus text-format exposition
//
// Logs are structured (log/slog) on stderr; -log-format json -log-level
// debug emits one JSON line per request stage, each stamped with the
// request's trace ID (X-Request-ID). -debug-addr starts a separate
// net/http/pprof listener (off by default, never on the serving port).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"flowgen/internal/circuits"
	"flowgen/internal/cliflags"
	"flowgen/internal/fault"
	"flowgen/internal/loop"
	"flowgen/internal/obs"
	"flowgen/internal/serve"
	"flowgen/internal/synth"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		modelsDir  = flag.String("models", "", "directory of *.flowmodel files to serve")
		modelFile  = flag.String("model", "", "single model file to serve")
		defName    = flag.String("default", "", "default model name (first loaded if empty)")
		bootstrap  = flag.String("bootstrap", "", "register a freshly initialized in-memory model under this name (demo/smoke use)")
		maxBatch   = flag.Int("maxbatch", 64, "max coalesced requests per forward pass")
		queueCap   = flag.Int("queue", 1024, "bounded prediction queue depth (beyond it requests are shed)")
		workers    = cliflags.Workers(flag.CommandLine, "workers", "prediction workers per batch (0 = GOMAXPROCS)")
		cacheN     = flag.Int("cache", 4096, "scored-flow cache capacity (0 disables)")
		maxPool    = flag.Int("maxpool", 200000, "largest recommendation pool one request may score")
		watch      = flag.Duration("watch", 0, "poll model files at this interval and hot-reload on change (0 disables)")
		reqTimeout = cliflags.PositiveDuration(flag.CommandLine, "request-timeout", 30*time.Second,
			"server-side deadline per request, propagated through batcher, predictor and loop")

		loopDesign   = flag.String("loop", "", "run the continuous flow-development loop against this design: label observed flows with true QoR, retrain and re-publish the default model in the background")
		retrainEvery = flag.Int("retrain-every", 200, "new labels between background retraining rounds")
		labelWorkers = cliflags.Workers(flag.CommandLine, "label-workers", "synthesis workers labeling queued flows (0 = half the CPUs, so labeling never starves serving)")
		journalPath  = flag.String("journal", "", "labeled-flow journal path (default <model path>.labels; in-memory for a pathless -bootstrap model)")
		labelTimeout = cliflags.PositiveDuration(flag.CommandLine, "label-timeout", 2*time.Minute,
			"deadline for one labeling batch's synthesis evaluation; a batch beyond it is abandoned")
		retrainBudget = cliflags.PositiveDuration(flag.CommandLine, "retrain-budget", 10*time.Minute,
			"wall-clock watchdog for one retraining round; a round beyond it is aborted, the serving model keeps serving")
		journalBackoff = cliflags.PositiveDuration(flag.CommandLine, "journal-backoff", 10*time.Millisecond,
			"base backoff between journal write retries (doubles per attempt, capped at 10x)")
		drainTimeout = cliflags.PositiveDuration(flag.CommandLine, "drain-timeout", 10*time.Second,
			"deadline for the ordered graceful shutdown: HTTP drain, labeler flush, journal fsync")
		seed = cliflags.Seed(flag.CommandLine, 1)

		logFormat = cliflags.LogFormat(flag.CommandLine)
		logLevel  = cliflags.LogLevel(flag.CommandLine)
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fatal(err) // unreachable: cliflags validates at Parse
	}
	slog.SetDefault(logger)
	obs.RegisterProcessMetrics(obs.Default())

	// Chaos jobs fault a stock binary through the environment; a bad
	// spec is a startup error, not a silently unarmed plan.
	if err := fault.InitFromEnv(); err != nil {
		fatal(err)
	}
	if fault.Enabled() {
		slog.Warn("flowserve: fault injection armed", "spec", os.Getenv("FLOWGEN_FAULTS"))
	}

	reg := serve.NewRegistry()
	load := func(path string) error {
		m, err := serve.LoadModelFile(path)
		if err != nil {
			return err
		}
		if m.Name == "" {
			m.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		reg.Register(m)
		slog.Info("flowserve: loaded model", "model", m.Name, "version", m.Version,
			"path", path, "params", m.Net.NumParams(), "classes", m.Arch.NumClasses)
		return nil
	}
	if *modelFile != "" {
		if err := load(*modelFile); err != nil {
			fatal(err)
		}
	}
	if *modelsDir != "" {
		paths, err := filepath.Glob(filepath.Join(*modelsDir, "*.flowmodel"))
		if err != nil {
			fatal(err)
		}
		sort.Strings(paths)
		if len(paths) == 0 {
			fatal(fmt.Errorf("no *.flowmodel files in %s", *modelsDir))
		}
		for _, p := range paths {
			if err := load(p); err != nil {
				fatal(err)
			}
		}
	}
	if *bootstrap != "" {
		m := reg.Register(serve.BootstrapModel(*bootstrap))
		slog.Info("flowserve: bootstrapped untrained model", "model", m.Name, "params", m.Net.NumParams())
	}
	if len(reg.List()) == 0 {
		fatal(errors.New("no models to serve (use -models, -model or -bootstrap)"))
	}
	if *defName != "" {
		if err := reg.SetDefault(*defName); err != nil {
			fatal(err)
		}
	}

	cfg := serve.DefaultServerConfig()
	cfg.Batcher = serve.BatcherConfig{MaxBatch: *maxBatch, QueueCap: *queueCap, Workers: *workers}
	cfg.CacheSize = *cacheN
	cfg.MaxPool = *maxPool
	cfg.RequestTimeout = *reqTimeout
	cfg.Obs = obs.Default() // one exposition: server + loop + process + predictor compiles
	srv := serve.NewServer(reg, cfg)

	// lp/stopLoop stay nil without -loop; shutdownSequence handles both.
	var lp *loop.Loop
	var stopLoop context.CancelFunc
	if *loopDesign != "" {
		d, err := circuits.ByName(*loopDesign)
		if err != nil {
			fatal(err)
		}
		target, err := reg.Get("") // loop retrains the default model
		if err != nil {
			fatal(err)
		}
		journal := *journalPath
		if journal == "" && target.Path != "" {
			journal = target.Path + ".labels"
		}
		eng := synth.NewEngine(d.Build(), target.Space)
		eng.RegisterMetrics(obs.Default())
		lp, err = loop.New(reg, eng, loop.Config{
			ModelName:     target.Name,
			RetrainEvery:  *retrainEvery,
			LabelWorkers:  *labelWorkers,
			JournalPath:   journal,
			LabelTimeout:  *labelTimeout,
			RetrainBudget: *retrainBudget,
			JournalRetry:  loop.RetryConfig{Backoff: *journalBackoff},
			Seed:          *seed,
			Obs:           obs.Default(),
		})
		if err != nil {
			fatal(err)
		}
		var loopCtx context.Context
		loopCtx, stopLoop = context.WithCancel(context.Background())
		go lp.Run(loopCtx)
		srv.SetLoop(lp)
		persist := journal
		if persist == "" {
			persist = "in-memory"
		}
		slog.Info("flowserve: loop enabled", "model", target.Name, "design", *loopDesign,
			"retrain_every", *retrainEvery, "journal", persist)
	}

	if *watch > 0 {
		watcher := serve.NewWatcher(reg)
		watchCtx, stopWatch := context.WithCancel(context.Background())
		defer stopWatch()
		go watcher.Run(watchCtx, *watch, func(ev serve.WatchEvent) {
			if ev.Err != nil {
				slog.Error("flowserve: watch reload failed", "model", ev.Name, "error", ev.Err)
				return
			}
			slog.Info("flowserve: model file changed", "model", ev.Name, "version", ev.Version)
		})
	}

	if *debugAddr != "" {
		// pprof lives on its own listener and mux so the profiling
		// surface is never exposed on the serving port.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			slog.Info("flowserve: pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				slog.Error("flowserve: pprof listener failed", "error", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	slog.Info("flowserve: serving", "models", len(reg.List()), "addr", *addr,
		"default", reg.DefaultName())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		slog.Info("flowserve: draining", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := shutdownSequence(ctx, httpSrv, srv, lp, stopLoop); err != nil {
			fatal(err)
		}
	}
}

// httpShutdowner is the slice of *http.Server the shutdown sequence
// needs, so tests can drive the sequence without binding a socket.
type httpShutdowner interface {
	Shutdown(ctx context.Context) error
}

// shutdownSequence is the ordered graceful shutdown. Ordering is the
// point — each step quiesces the producer feeding the next, so nothing
// accepted is dropped:
//
//  1. flip /readyz to 503 (load balancers stop routing here);
//  2. stop HTTP intake, waiting out in-flight requests (which may
//     still Observe flows into the loop);
//  3. drain the loop — quiesce its intake, let the labeler flush the
//     queue, fsync the journal — then stop its goroutines and close
//     the journal;
//  4. close the server's batchers last, after nothing can submit.
//
// lp and stopLoop are nil without -loop. The reverse of this order
// (close batchers or the journal first, as independent defers would)
// can drop in-flight labels on SIGTERM.
func shutdownSequence(ctx context.Context, web httpShutdowner, srv *serve.Server, lp *loop.Loop, stopLoop context.CancelFunc) error {
	srv.StartDraining()
	if web != nil {
		if err := web.Shutdown(ctx); err != nil {
			return fmt.Errorf("http shutdown: %w", err)
		}
	}
	if lp != nil {
		res, err := lp.Drain(ctx)
		if err != nil {
			slog.Error("flowserve: loop drain failed", "error", err)
		} else {
			slog.Info("flowserve: loop drained", "result", res)
		}
		if stopLoop != nil {
			stopLoop()
		}
		if err := lp.Close(); err != nil {
			return fmt.Errorf("closing loop: %w", err)
		}
	} else if stopLoop != nil {
		stopLoop()
	}
	srv.Close()
	return nil
}

func fatal(err error) {
	slog.Error("flowserve: fatal", "error", err)
	os.Exit(1)
}
