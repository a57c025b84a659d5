// Command consensusd is the simulation daemon: it serves the service
// package's HTTP JSON API so runs can be submitted, cached, streamed and
// monitored over the network.
//
//	consensusd -addr :8645 -service-workers 8
//	consensusd -addr :8645 -auth-token s3cret   # 401 on unauthenticated writes
//	consensusd -addr :8645 -store /var/lib/consensusd/runs.store
//	consensusd -store runs.store -store-max-bytes 1073741824 -store-max-age 2160h
//	consensusd -auth-token s3cret -quota-file quotas.json
//	consensusd -tls-cert server.crt -tls-key server.key
//
// With -store, completed runs are committed to the file-backed store
// (package service/store) and reloaded on startup, so a restarted daemon
// serves previously computed results as cache hits without re-running
// them. -store-max-bytes and -store-max-age bound the store's retention
// for sustained traffic: the newest runs within the byte budget and age
// bound are kept, older ones are garbage-collected (at open and by
// background compaction) and evicted from the cache in step. -quota-file
// loads per-token submit quotas (JSON: token → {"rate": r, "burst": b});
// quota tokens authenticate like -auth-token but each meters its own
// bucket. -tls-cert/-tls-key serve the API over TLS.
//
// Endpoints (see package service for details):
//
//	POST   /v1/runs             submit a run spec (any registered kind:
//	                            median, gossip, multidim, robust)
//	GET    /v1/runs             list runs
//	GET    /v1/runs/{id}        run status + result
//	DELETE /v1/runs/{id}        cancel a run (mid-simulation, any engine)
//	GET    /v1/runs/{id}/stream per-round NDJSON records
//	POST   /v1/batches          expand + run a grid (cartesian + zipped
//	                            axes, derived fields), NDJSON per cell
//	GET    /v1/engines          registered spec kinds + param schemas
//	GET    /v1/events           live job/store lifecycle events (NDJSON)
//	GET    /v1/healthz          liveness
//	GET    /v1/metrics          job/cache/worker/batch counters plus
//	                            latency histograms (JSON, or Prometheus
//	                            text via Accept negotiation)
//
// With -debug-addr, a second listener off the public mux serves
// net/http/pprof under /debug/pprof/ and the Prometheus text exposition
// under /debug/metrics, so profiling and scraping can be firewalled
// separately from the API. Every response carries an X-Request-Id
// (propagated or generated) that also appears in the structured access
// log on stderr and on job events.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/service"
)

func main() {
	addr := flag.String("addr", ":8645", "listen address")
	workers := flag.Int("service-workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 256, "max queued jobs before submissions are rejected")
	cacheSize := flag.Int("cache", 1024, "result cache size in entries")
	maxRecords := flag.Int("max-records", 1<<16, "max stored round records per job")
	maxJobs := flag.Int("max-jobs", 4096, "max in-memory job history; beyond it the oldest terminal jobs are evicted first (queued and running jobs never), at a per-submit cost bounded by -queue plus the worker count, not by this size")
	maxN := flag.Int64("max-n", 1<<27, "max population a submitted spec may materialize")
	maxBatchCells := flag.Int("max-batch-cells", 4096, "max cells one batch request may expand to")
	maxBody := flag.Int64("max-body", 1<<20, "max HTTP request body in bytes (413 beyond)")
	submitRate := flag.Float64("submit-rate", 0, "submit requests per second admitted (0 = unlimited; 429 beyond)")
	submitBurst := flag.Int("submit-burst", 0, "submit rate limiter burst (0 = default)")
	authToken := flag.String("auth-token", "", "bearer token required on mutating endpoints ('' = no auth)")
	quotaFile := flag.String("quota-file", "", "JSON file mapping bearer tokens to per-token submit quotas ('' = disabled)")
	storePath := flag.String("store", "", "path of the persistent job/result store; completed runs survive restarts ('' = in-memory only)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "store retention byte budget: newest runs that fit are kept (0 = unbounded)")
	storeMaxAge := flag.Duration("store-max-age", 0, "store retention age bound: runs finished longer ago are dropped (0 = unbounded)")
	tlsCert := flag.String("tls-cert", "", "TLS certificate file; with -tls-key, serve the API over TLS ('' = plain HTTP)")
	tlsKey := flag.String("tls-key", "", "TLS private key file (paired with -tls-cert)")
	debugAddr := flag.String("debug-addr", "", "separate debug listener serving net/http/pprof and /debug/metrics ('' = disabled)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("consensusd", buildinfo.String())
		return
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "consensusd: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if (*tlsCert == "") != (*tlsKey == "") {
		fmt.Fprintln(os.Stderr, "consensusd: -tls-cert and -tls-key must be set together")
		os.Exit(2)
	}
	var quotas map[string]service.Quota
	if *quotaFile != "" {
		var err error
		if quotas, err = service.LoadQuotaFile(*quotaFile); err != nil {
			logger.Error("loading quota file failed", "error", err)
			os.Exit(1)
		}
	}

	svc, err := service.New(service.Options{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		CacheSize:     *cacheSize,
		MaxRecords:    *maxRecords,
		MaxJobs:       *maxJobs,
		MaxN:          *maxN,
		MaxBatchCells: *maxBatchCells,
		MaxBodyBytes:  *maxBody,
		SubmitRate:    *submitRate,
		SubmitBurst:   *submitBurst,
		AuthToken:     *authToken,
		Quotas:        quotas,
		StorePath:     *storePath,
		StoreMaxBytes: *storeMaxBytes,
		StoreMaxAge:   *storeMaxAge,
		Logger:        logger,
	})
	if err != nil {
		logger.Error("startup failed", "error", err)
		os.Exit(1)
	}
	if *storePath != "" {
		m := svc.Metrics()
		logger.Info("store reloaded", "path", *storePath,
			"records", m.StoreRecordsLoaded, "dropped", m.StoreRecordsDropped,
			"compactions", m.StoreCompactions)
	}
	server := &http.Server{Addr: *addr, Handler: svc.Handler()}

	// The debug listener is deliberately a separate mux on a separate
	// port: pprof handlers and the raw metric exposition never appear on
	// the public API surface.
	var debugServer *http.Server
	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			svc.WriteMetricsText(w)
		})
		debugServer = &http.Server{Addr: *debugAddr, Handler: dbg}
		go func() {
			if err := debugServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		logger.Info("debug listener started", "addr", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		if *tlsCert != "" {
			errc <- server.ListenAndServeTLS(*tlsCert, *tlsKey)
		} else {
			errc <- server.ListenAndServe()
		}
	}()
	logger.Info("listening", "addr", *addr, "version", buildinfo.Version, "tls", *tlsCert != "")

	select {
	case err := <-errc:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = server.Shutdown(shutdownCtx)
	if debugServer != nil {
		_ = debugServer.Shutdown(shutdownCtx)
	}
	svc.Close()
}
