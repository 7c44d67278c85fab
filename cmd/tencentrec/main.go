// Command tencentrec runs a TencentRec deployment in one of three modes.
//
// -mode single (default) runs the full in-process system and serves the
// recommender front end over HTTP (Fig. 9): actions are ingested via
// POST, recommendations answered via GET, all backed by the TDAccess →
// topology → TDStore pipeline.
//
// -mode supervisor runs the multi-process cluster master: it plans a
// submitted topology spec across N worker processes (spawned as
// re-executions of this binary), restarts crashed workers with backoff,
// and serves the cluster control plane.
//
// -mode worker runs one cluster worker; normally spawned by a
// supervisor, not by hand.
//
// Endpoints (single mode):
//
//	POST /action                       body: {"user","item","action","ts",...}
//	POST /item                         body: {"id","terms":[...],"published_ns":...}
//	GET  /recommend?user=u&n=10        CF slate with DB complement
//	GET  /similar?item=i&n=10          similar-items list
//	GET  /hot?user=u&n=10              demographic hot list
//	GET  /ads?region=&gender=&age=&n=  situational ad ranking
//	POST /control/rebalance            ?component=c&parallelism=n (or JSON
//	                                   body): change a bolt's live task
//	                                   count without stopping the pipeline
//	POST /control/checkpoint           [?timeout=30s] drain and write an
//	                                   offset-anchored store snapshot to
//	                                   -checkpoint-dir; restart with
//	                                   -restore to resume from it
//	GET  /metrics                      topology metrics snapshot (table);
//	                                   Prometheus text with
//	                                   Accept: text/plain; version=0.0.4
//	                                   or ?format=prometheus
//	GET  /debug/vars                   JSON metrics dump
//	GET  /debug/traces                 sampled tuple traces
//	                                   (?format=waterfall for text)
//	GET  /debug/pprof/                 runtime profiles (with -pprof)
//
// Endpoints (supervisor mode): see internal/cluster — /cluster/submit,
// /cluster/status, /cluster/kill, /control/rebalance (proxied),
// /cluster/metrics/stream (SSE), and more.
//
// Examples:
//
//	tencentrec -addr :8080 -data /tmp/tencentrec
//	curl -XPOST localhost:8080/action -d '{"user":"u1","item":"i1","action":"click","ts":0}'
//	curl 'localhost:8080/recommend?user=u1'
//
//	tencentrec -mode supervisor -addr 127.0.0.1:9090 -spec topo.json -workers 3
//	curl localhost:9090/cluster/status
//	curl -N localhost:9090/cluster/metrics/stream
//
// SIGINT/SIGTERM shut single mode down cleanly: the topology drains, and
// when -checkpoint-dir is set a final offset-anchored checkpoint is
// written first, so a supervisor-initiated stop (systemd, k8s) can always
// resume with -restore.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"tencentrec"
	"tencentrec/internal/cluster"
)

func main() {
	// Worker processes are re-executions of this binary with the cluster
	// env hook set; they never reach flag parsing.
	if cluster.MaybeWorker() {
		return
	}

	mode := flag.String("mode", "single", "run mode: single (in-process system), supervisor (cluster master), worker (cluster worker)")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	dataDir := flag.String("data", "", "TDAccess data directory (required in single mode)")
	storeEngine := flag.String("store-engine", "mdb", "TDStore storage engine: mdb (in-memory) or ldb (log-structured, durable)")
	storeDir := flag.String("store-dir", "", "directory for durable store engines (default <data>/tdstore)")
	storeSync := flag.Bool("store-sync", false, "fsync the ldb write-ahead log via group commit (survives power loss, not just crashes)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for offset-anchored store checkpoints (default <data>/checkpoint)")
	restore := flag.Bool("restore", false, "cold-start the store from the checkpoint in -checkpoint-dir and replay only the tail (requires -store-engine ldb)")
	enableCB := flag.Bool("cb", true, "enable the content-based chain")
	enableCtr := flag.Bool("ctr", true, "enable the situational CTR chain")
	enableAR := flag.Bool("ar", false, "enable the association-rule chain")
	flush := flag.Duration("flush", 100*time.Millisecond, "combiner flush interval: the longest a staged delta waits (an idle pipeline flushes at once)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceEvery := flag.Int("trace-every", 0, "sample one tuple trace per N spout emissions (0 = default 1024, negative = off)")
	queueDepth := flag.Int("queue-depth", 0, "per-task input queue capacity in batches (0 = engine default)")
	cacheTTL := flag.Duration("cache-ttl", 0, "serving-tier result cache TTL (0 = default, negative = cache off)")
	cacheSize := flag.Int("cache-size", 0, "serving-tier result cache capacity in entries (0 = default, negative = cache off)")
	negTTL := flag.Duration("neg-ttl", 0, "serving-tier negative-cache TTL for absent keys (0 = default)")

	// Cluster-mode flags.
	clusterName := flag.String("cluster", "tencentrec", "cluster name (supervisor/worker modes)")
	specPath := flag.String("spec", "", "supervisor mode: topology spec JSON to submit at startup (empty = wait for POST /cluster/submit)")
	workers := flag.Int("workers", 0, "supervisor mode: override the spec's worker count (0 = use spec)")
	supURL := flag.String("supervisor", "", "worker mode: supervisor control-plane URL")
	workerID := flag.Int("worker-id", 0, "worker mode: this worker's id")
	flag.Parse()

	switch *mode {
	case "single":
		runSingle(singleConfig{
			addr: *addr, dataDir: *dataDir, storeEngine: *storeEngine, storeDir: *storeDir,
			storeSync: *storeSync, checkpointDir: *checkpointDir, restore: *restore,
			enableCB: *enableCB, enableCtr: *enableCtr, enableAR: *enableAR, flush: *flush,
			enablePprof: *enablePprof, traceEvery: *traceEvery, queueDepth: *queueDepth,
			cacheTTL: *cacheTTL, cacheSize: *cacheSize, negTTL: *negTTL,
		})
	case "supervisor":
		runSupervisor(*addr, *clusterName, *dataDir, *specPath, *workers)
	case "worker":
		if *supURL == "" {
			fmt.Fprintln(os.Stderr, "tencentrec: -mode worker requires -supervisor")
			os.Exit(2)
		}
		if err := cluster.RunWorker(cluster.WorkerConfig{
			Cluster: *clusterName, ID: *workerID, SupervisorURL: *supURL,
		}); err != nil {
			log.Fatalf("worker: %v", err)
		}
	default:
		fmt.Fprintf(os.Stderr, "tencentrec: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
}

// runSupervisor hosts the cluster control plane until a signal arrives
// or (when a spec was submitted at startup) the topology completes.
func runSupervisor(addr, clusterName, dir, specPath string, workers int) {
	exe, err := os.Executable()
	if err != nil {
		log.Fatalf("supervisor: resolve binary: %v", err)
	}
	sup, err := cluster.NewSupervisor(cluster.SupervisorConfig{
		Cluster:    clusterName,
		Addr:       addr,
		Dir:        dir,
		WorkerArgv: []string{exe, "-mode", "worker"},
	})
	if err != nil {
		log.Fatalf("supervisor: %v", err)
	}
	defer sup.Close()
	log.Printf("cluster %q control plane on %s (worker logs in %s)", clusterName, sup.URL(), dir)

	submitted := false
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			log.Fatalf("supervisor: read spec: %v", err)
		}
		spec, err := cluster.ParseSpec(data)
		if err != nil {
			log.Fatalf("supervisor: %v", err)
		}
		if workers > 0 {
			spec.Workers = workers
		}
		if err := sup.Submit(spec); err != nil {
			log.Fatalf("supervisor: submit: %v", err)
		}
		log.Printf("submitted topology %q (%s)", spec.Name, strconv.Itoa(spec.Workers)+" workers requested")
		submitted = true
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if submitted {
		select {
		case <-stop:
			log.Print("signal received, tearing the cluster down")
		case <-sup.Completed():
			log.Print("topology completed")
		}
	} else {
		<-stop
		log.Print("signal received, tearing the cluster down")
	}
}

type singleConfig struct {
	addr, dataDir, storeEngine, storeDir, checkpointDir string
	storeSync, restore, enableCB, enableCtr, enableAR   bool
	enablePprof                                         bool
	flush, cacheTTL, negTTL                             time.Duration
	traceEvery, queueDepth, cacheSize                   int
}

func runSingle(c singleConfig) {
	if c.dataDir == "" {
		fmt.Fprintln(os.Stderr, "tencentrec: -data is required")
		os.Exit(2)
	}

	sys, err := tencentrec.Open(tencentrec.SystemConfig{
		DataDir:               c.dataDir,
		StoreEngine:           c.storeEngine,
		StoreDir:              c.storeDir,
		StoreSyncWrites:       c.storeSync,
		CheckpointDir:         c.checkpointDir,
		RestoreFromCheckpoint: c.restore,
		Params: tencentrec.Params{
			FlushInterval: c.flush,
			EnableAR:      c.enableAR,
		},
		Features:   tencentrec.Features{CF: true, CB: c.enableCB, Ctr: c.enableCtr, AR: c.enableAR},
		TraceEvery: c.traceEvery,
		QueueDepth: c.queueDepth,

		ServingCacheTTL:    c.cacheTTL,
		ServingCacheSize:   c.cacheSize,
		ServingNegativeTTL: c.negTTL,
	})
	if err != nil {
		log.Fatalf("open system: %v", err)
	}
	defer sys.Close()

	mux := http.NewServeMux()
	mux.Handle("/", sys.Handler())
	if c.enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Addr: c.addr, Handler: mux}
	go func() {
		log.Printf("tencentrec serving on %s (data=%s)", c.addr, c.dataDir)
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("serve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	log.Printf("%v received, shutting down", sig)
	srv.Close()
	// Graceful stop: drain in-flight actions so queries and checkpoints
	// see everything ingested before the signal. With a checkpoint dir
	// configured, also persist an offset-anchored snapshot so the next
	// start can -restore instead of replaying the whole log.
	if c.checkpointDir != "" {
		log.Print("draining and writing final checkpoint")
		if err := sys.Checkpoint(30 * time.Second); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
	} else if err := sys.Drain(10 * time.Second); err != nil {
		log.Printf("drain: %v", err)
	}
	// Print whatever latency waterfalls were sampled — the monitor's
	// parting view of where pipeline time went.
	if traces := sys.Traces(); len(traces) > 0 {
		fmt.Fprintln(os.Stderr, "sampled tuple traces:")
		sys.WriteTraceWaterfall(os.Stderr)
	}
}
