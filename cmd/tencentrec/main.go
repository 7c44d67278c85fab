// Command tencentrec runs the full in-process TencentRec system and
// serves the recommender front end over HTTP (Fig. 9): actions are
// ingested via POST, recommendations answered via GET, all backed by the
// TDAccess → topology → TDStore pipeline.
//
// Endpoints:
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
//	                                   -checkpoint-dir; an ldb restart
//	                                   resumes from it
//	GET  /metrics                      topology metrics snapshot (table);
//	                                   Prometheus text with
//	                                   Accept: text/plain; version=0.0.4
//	                                   or ?format=prometheus
//	GET  /debug/vars                   JSON metrics dump
//	GET  /debug/traces                 sampled tuple traces
//	                                   (?format=waterfall for text)
//	GET  /debug/pprof/                 runtime profiles (with -pprof)
//
// Examples:
//
//	tencentrec -addr :8080 -data /tmp/tencentrec
//	curl -XPOST localhost:8080/action -d '{"user":"u1","item":"i1","action":"click","ts":0}'
//	curl 'localhost:8080/recommend?user=u1'
//
// SIGINT/SIGTERM shut the server down cleanly: the topology drains, and
// with -store-engine ldb a final offset-anchored checkpoint is written
// first. An ldb start resumes from the committed checkpoint in
// -checkpoint-dir when there is one, replaying only the tail past it, so
// a supervisor-initiated stop (systemd, k8s) needs no flag to resume.
// Without one it refuses a -store-dir that already holds state.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tencentrec"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	dataDir := flag.String("data", "", "TDAccess data directory (required)")
	storeEngine := flag.String("store-engine", "mdb", "TDStore storage engine: mdb (in-memory) or ldb (log-structured, durable)")
	storeDir := flag.String("store-dir", "", "directory for durable store engines (default <data>/tdstore)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for offset-anchored store checkpoints (default <data>/checkpoint)")
	enableCB := flag.Bool("cb", true, "enable the content-based chain")
	enableCtr := flag.Bool("ctr", true, "enable the situational CTR chain")
	enableAR := flag.Bool("ar", false, "enable the association-rule chain (ARItemBolt → ARBolt → ARListBolt)")
	flush := flag.Duration("flush", 100*time.Millisecond, "combiner flush interval: the longest a staged delta waits (an idle pipeline flushes at once)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceEvery := flag.Int("trace-every", 0, "sample one tuple trace per N spout emissions (0 = default 1024, negative = off)")
	cacheTTL := flag.Duration("cache-ttl", 0, "serving-tier cache TTL (0 = default, negative = serve without a cache)")
	negTTL := flag.Duration("neg-ttl", 0, "serving-tier negative-cache TTL for absent keys (0 = default)")
	flag.Parse()

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "tencentrec: -data is required")
		os.Exit(2)
	}

	sys, err := tencentrec.Open(tencentrec.SystemConfig{
		DataDir:            *dataDir,
		StoreEngine:        *storeEngine,
		StoreDir:           *storeDir,
		CheckpointDir:      *checkpointDir,
		Params:             tencentrec.Params{FlushInterval: *flush},
		Features:           tencentrec.Features{CF: true, CB: *enableCB, Ctr: *enableCtr, AR: *enableAR},
		TraceEvery:         *traceEvery,
		ServingCacheTTL:    *cacheTTL,
		ServingNegativeTTL: *negTTL,
	})
	if err != nil {
		log.Fatalf("open system: %v", err)
	}
	defer sys.Close()

	mux := http.NewServeMux()
	mux.Handle("/", sys.Handler())
	if *enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		log.Printf("tencentrec serving on %s (data=%s)", *addr, *dataDir)
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
	// see everything ingested before the signal. On the ldb engine, also
	// persist an offset-anchored snapshot so the next start resumes from
	// it: without one it would refuse the store this run leaves.
	if *storeEngine == "ldb" {
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
