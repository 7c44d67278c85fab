// Command loadgen synthesizes a realistic action stream from the
// workload model and drives it at a running tencentrec server — the
// "producer" side of the paper's deployment — or writes it to stdout as
// JSON lines for offline replay. With -read-mix it instead exercises the
// query side: concurrent GETs over /recommend, /similar and /hot with
// Zipfian user and item popularity, reporting QPS and latency quantiles.
//
// Usage:
//
//	loadgen -users 500 -items 300 -actions 100000 -rate 5000 -url http://localhost:8080
//	loadgen -actions 1000 > actions.jsonl
//	loadgen -url http://localhost:8080 -read-mix recommend:6,similar:3,hot:1 -reads 50000 -conc 16
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/obsv"
	"tencentrec/internal/topology"
	"tencentrec/internal/workload"
)

func main() {
	users := flag.Int("users", 500, "population size")
	items := flag.Int("items", 300, "catalog size")
	actions := flag.Int("actions", 100000, "number of actions to generate")
	rate := flag.Int("rate", 0, "actions per second (0 = as fast as possible)")
	url := flag.String("url", "", "tencentrec server base URL (empty = write JSON lines to stdout)")
	seed := flag.Int64("seed", 1, "workload seed")
	readMix := flag.String("read-mix", "", "query-side mode: endpoint weights like recommend:6,similar:3,hot:1 (requires -url)")
	reads := flag.Int("reads", 50000, "number of read requests in -read-mix mode")
	conc := flag.Int("conc", 16, "concurrent workers in -read-mix mode")
	zipf := flag.Float64("zipf", 1.1, "Zipf exponent (>1) for user/item popularity in -read-mix mode")
	flag.Parse()

	if *readMix != "" {
		if *url == "" {
			fmt.Fprintln(os.Stderr, "loadgen: -read-mix requires -url")
			os.Exit(2)
		}
		runReadMix(*url, *readMix, *reads, *conc, *zipf, *seed, *users, *items)
		return
	}

	w := workload.NewWorld(workload.Config{Seed: *seed, Users: *users, Items: *items})
	rng := w.Rand()
	types := []core.ActionType{core.ActionBrowse, core.ActionClick, core.ActionRead, core.ActionShare, core.ActionPurchase}

	// JSON is what POST /action and a reader of stdout take; the binary
	// frame of topology.EncodeAction is the TDAccess log's own.
	marshal := func(raw topology.RawAction) []byte {
		b, _ := json.Marshal(raw) // struct of plain fields cannot fail
		return b
	}
	var post func(raw topology.RawAction) error
	if *url == "" {
		out := bufio.NewWriter(os.Stdout)
		defer out.Flush()
		post = func(raw topology.RawAction) error {
			out.Write(marshal(raw))
			out.WriteByte('\n')
			return nil
		}
	} else {
		client := &http.Client{Timeout: 5 * time.Second}
		endpoint := *url + "/action"
		post = func(raw topology.RawAction) error {
			resp, err := client.Post(endpoint, "application/json", bytes.NewReader(marshal(raw)))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				return fmt.Errorf("server returned %s", resp.Status)
			}
			return nil
		}
	}

	var limiter <-chan time.Time
	if *rate > 0 {
		t := time.NewTicker(time.Second / time.Duration(*rate))
		defer t.Stop()
		limiter = t.C
	}

	start := time.Now()
	base := time.Now()
	for i := 0; i < *actions; i++ {
		u := w.Users[rng.Intn(len(w.Users))]
		it := w.SampleItemByPrefs(u)
		raw := topology.RawAction{
			User:   u.ID,
			Item:   it.ID,
			Action: string(types[rng.Intn(len(types))]),
			TS:     base.Add(time.Duration(i) * time.Millisecond).UnixNano(),
		}
		if limiter != nil {
			<-limiter
		}
		if err := post(raw); err != nil {
			log.Fatalf("action %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "generated %d actions in %v (%.0f/s)\n",
		*actions, elapsed.Round(time.Millisecond), float64(*actions)/elapsed.Seconds())
}

// parseMix turns "recommend:6,similar:3,hot:1" into a slate of endpoint
// names where each name appears once per weight unit, so a uniform draw
// over the slate realizes the requested ratio.
func parseMix(spec string) ([]string, error) {
	var slate []string
	for _, part := range strings.Split(spec, ",") {
		name, raw, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want endpoint:weight", part)
		}
		switch name {
		case "recommend", "similar", "hot":
		default:
			return nil, fmt.Errorf("mix entry %q: endpoint must be recommend, similar or hot", part)
		}
		w, err := strconv.Atoi(raw)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("mix entry %q: weight must be a positive integer", part)
		}
		for i := 0; i < w; i++ {
			slate = append(slate, name)
		}
	}
	if len(slate) == 0 {
		return nil, fmt.Errorf("empty mix %q", spec)
	}
	return slate, nil
}

// runReadMix drives concurrent reads at the server: each worker draws an
// endpoint from the weighted mix and a user/item by Zipfian popularity
// rank, so a hot head of keys dominates — the regime the serving tier's
// cache is built for. Latencies aggregate into one shared
// histogram; the report gives QPS and p50/p99.
func runReadMix(base, spec string, reads, conc int, zipfS float64, seed int64, users, items int) {
	slate, err := parseMix(spec)
	if err != nil {
		log.Fatalf("read mix: %v", err)
	}
	if conc <= 0 {
		conc = 1
	}
	if zipfS <= 1 {
		zipfS = 1.01
	}
	w := workload.NewWorld(workload.Config{Seed: seed, Users: users, Items: items})
	lat := obsv.NewHistogram()
	var wg sync.WaitGroup
	var errs, done int64
	var mu sync.Mutex
	start := time.Now()
	per := reads / conc
	for wk := 0; wk < conc; wk++ {
		n := per
		if wk == conc-1 {
			n = reads - per*(conc-1)
		}
		wg.Add(1)
		go func(wk, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(wk)*7919))
			userZ := rand.NewZipf(rng, zipfS, 1, uint64(len(w.Users)-1))
			itemZ := rand.NewZipf(rng, zipfS, 1, uint64(len(w.Items)-1))
			client := &http.Client{Timeout: 10 * time.Second}
			local, failed := 0, 0
			for i := 0; i < n; i++ {
				var u string
				switch slate[rng.Intn(len(slate))] {
				case "recommend":
					u = base + "/recommend?user=" + w.Users[userZ.Uint64()].ID
				case "similar":
					u = base + "/similar?item=" + w.Items[itemZ.Uint64()].ID
				case "hot":
					u = base + "/hot?user=" + w.Users[userZ.Uint64()].ID
				}
				t0 := obsv.Now()
				resp, err := client.Get(u)
				if err != nil {
					failed++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 300 {
					failed++
					continue
				}
				lat.Observe(obsv.Now() - t0)
				local++
			}
			mu.Lock()
			done += int64(local)
			errs += int64(failed)
			mu.Unlock()
		}(wk, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	s := lat.Snapshot()
	fmt.Fprintf(os.Stderr, "read mix %s: %d ok, %d failed in %v — %.0f qps, p50 %v, p99 %v\n",
		spec, done, errs, elapsed.Round(time.Millisecond),
		float64(done)/elapsed.Seconds(),
		time.Duration(s.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(s.Quantile(0.99)).Round(time.Microsecond))
	if errs > 0 {
		os.Exit(1)
	}
}
