package tencentrec

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tencentrec/internal/obsv"
)

// maxBodyBytes caps ingestion and control payloads. A single action or
// item easily fits; the cap keeps a misbehaving client from making the
// server buffer an unbounded request body.
const maxBodyBytes = 1 << 20

// maxListN caps the n query parameter of list endpoints, bounding the
// work and response size one request can demand.
const maxListN = 1000

// decodeBody decodes a size-capped JSON request body into v, answering
// 413 when the cap is exceeded and 400 on malformed JSON. Reports
// whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// Handler returns the recommender front end of Fig. 9 as an
// http.Handler: ingestion via POST /action and /item, queries via
// GET /recommend, /similar, /hot, /ads, operations via
// POST /control/rebalance (live bolt parallelism changes) and
// POST /control/checkpoint (offset-anchored store snapshot), and the
// monitor via GET /metrics (the human-readable table by default;
// Prometheus text exposition under Accept: text/plain; version=0.0.4 or
// ?format=prometheus), GET /debug/vars (JSON metrics dump) and
// GET /debug/traces (sampled tuple-latency waterfalls).
// cmd/tencentrec serves exactly this handler.
func (s *System) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, fn http.HandlerFunc) {
		h := s.registry.Histogram("http_request_seconds",
			"Serving front-end request latency by endpoint.", "endpoint", endpoint)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := obsv.Now()
			fn(w, r)
			h.Observe(obsv.Now() - start)
		})
	}
	handle("POST /action", "action", func(w http.ResponseWriter, r *http.Request) {
		var a RawAction
		if !decodeBody(w, r, &a) {
			return
		}
		// Pretreatment drops a record without these uncounted; a client
		// whose field mapping is broken must not read that as success.
		if !requireField(w, "user", a.User) || !requireField(w, "item", a.Item) || !requireField(w, "action", a.Action) {
			return
		}
		if a.TS == 0 {
			a.TS = time.Now().UnixNano()
		}
		if err := s.Publish(a); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	handle("POST /item", "item", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			ID          string   `json:"id"`
			Terms       []string `json:"terms"`
			PublishedNS int64    `json:"published_ns"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		// An empty id would store a profile under the bare prefix, which no
		// query can name.
		if !requireField(w, "id", body.ID) {
			return
		}
		if err := s.AddItem(body.ID, body.Terms, time.Unix(0, body.PublishedNS)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	handle("GET /recommend", "recommend", func(w http.ResponseWriter, r *http.Request) {
		user, ok := requireParam(w, r, "user")
		if !ok {
			return
		}
		serveList(w, r, func(n int) ([]ScoredItem, error) {
			return s.Recommend(user, n)
		})
	})
	handle("GET /similar", "similar", func(w http.ResponseWriter, r *http.Request) {
		item, ok := requireParam(w, r, "item")
		if !ok {
			return
		}
		serveList(w, r, func(n int) ([]ScoredItem, error) {
			return s.SimilarItems(item, n)
		})
	})
	handle("GET /hot", "hot", func(w http.ResponseWriter, r *http.Request) {
		user, ok := requireParam(w, r, "user")
		if !ok {
			return
		}
		serveList(w, r, func(n int) ([]ScoredItem, error) {
			return s.HotItems(user, n)
		})
	})
	handle("GET /ads", "ads", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		serveList(w, r, func(n int) ([]ScoredItem, error) {
			return s.TopAds(NewAdContext(q.Get("region"), q.Get("gender"), q.Get("age")), n)
		})
	})
	handle("POST /control/rebalance", "control_rebalance", s.running.ServeRebalance)
	handle("POST /control/checkpoint", "control_checkpoint", func(w http.ResponseWriter, r *http.Request) {
		// Drain the pipeline and write an offset-anchored store snapshot
		// to CheckpointDir; a later cold start with -restore resumes from
		// it replaying only the tail (DESIGN.md §16).
		timeout := 30 * time.Second
		if raw := r.URL.Query().Get("timeout"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil || d <= 0 {
				http.Error(w, fmt.Sprintf("query parameter timeout must be a positive duration, got %q", raw), http.StatusBadRequest)
				return
			}
			timeout = d
		}
		if err := s.Checkpoint(timeout); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"checkpoint_dir": s.cfg.CheckpointDir,
		})
	})
	handle("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			s.registry.ServePrometheus(w, r)
			return
		}
		fmt.Fprint(w, s.Metrics().String())
	})
	handle("GET /debug/vars", "debug_vars", s.registry.ServeJSON)
	handle("GET /debug/traces", "debug_traces", func(w http.ResponseWriter, r *http.Request) {
		traces := s.Traces()
		if r.URL.Query().Get("format") == "waterfall" {
			obsv.WriteWaterfall(w, traces)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if traces == nil {
			traces = []obsv.TraceSnapshot{}
		}
		json.NewEncoder(w).Encode(traces)
	})
	return mux
}

// wantsPrometheus reports whether a /metrics request asked for the
// Prometheus text exposition instead of the human-readable table. The
// table stays the default so a bare curl shows the monitor view.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "version=0.0.4") ||
		strings.Contains(accept, "openmetrics")
}

// requireParam fetches a mandatory query parameter, answering 400 when
// it is absent.
func requireParam(w http.ResponseWriter, r *http.Request, name string) (string, bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		http.Error(w, fmt.Sprintf("missing required query parameter %q", name), http.StatusBadRequest)
		return "", false
	}
	return v, true
}

// requireField answers 400 when a mandatory field of a JSON body is empty.
func requireField(w http.ResponseWriter, name, v string) bool {
	if v == "" {
		http.Error(w, fmt.Sprintf("missing required field %q", name), http.StatusBadRequest)
	}
	return v != ""
}

func serveList(w http.ResponseWriter, r *http.Request, fn func(n int) ([]ScoredItem, error)) {
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			http.Error(w, fmt.Sprintf("query parameter n must be a positive integer, got %q", raw), http.StatusBadRequest)
			return
		}
		if v > maxListN {
			http.Error(w, fmt.Sprintf("query parameter n must be at most %d, got %d", maxListN, v), http.StatusBadRequest)
			return
		}
		n = v
	}
	list, err := fn(n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if list == nil {
		list = []ScoredItem{}
	}
	json.NewEncoder(w).Encode(list)
}
