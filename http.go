package tencentrec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"tencentrec/internal/obsv"
)

// maxBodyBytes caps ingestion and control payloads. A single action or
// item easily fits; the cap keeps a misbehaving client from making the
// server buffer an unbounded request body.
const maxBodyBytes = 1 << 20

// maxListN caps the n query parameter of list endpoints, bounding the
// work and response size one request can demand.
const maxListN = 1000

// maxPooledBody caps the list-response buffers bodyPool keeps: a rare
// large answer (n near maxListN) is dropped rather than pinned.
const maxPooledBody = 64 << 10

// bodyPool recycles the buffers list responses are encoded into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// errTrailingBody refuses a request body holding anything but whitespace
// after its value: a second value would be read as accepted and dropped.
var errTrailingBody = errors.New("request body holds more than one JSON value")

// decodeBody decodes a size-capped JSON request body, which must be
// exactly one JSON value, into v, answering 413 when the cap is exceeded
// and 400 on malformed JSON or data after the value. Reports whether
// decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	trailing := err == nil
	if trailing {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return false
	}
	if trailing {
		err = errTrailingBody
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
	return false
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
		q := r.URL.RawQuery
		serveList(w, r, func(n int) ([]ScoredItem, error) {
			return s.TopAds(NewAdContext(queryValue(q, "region"), queryValue(q, "gender"), queryValue(q, "age")), n)
		})
	})
	handle("POST /control/rebalance", "control_rebalance", s.running.ServeRebalance)
	handle("POST /control/checkpoint", "control_checkpoint", func(w http.ResponseWriter, r *http.Request) {
		// Drain the pipeline and write an offset-anchored store snapshot
		// to CheckpointDir; a later cold start on the ldb engine resumes
		// from it replaying only the tail (DESIGN.md §16).
		timeout := 30 * time.Second
		if raw := queryValue(r.URL.RawQuery, "timeout"); raw != "" {
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
		if queryValue(r.URL.RawQuery, "format") == "waterfall" {
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
	if queryValue(r.URL.RawQuery, "format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "version=0.0.4") ||
		strings.Contains(accept, "openmetrics")
}

// queryValue returns what r.URL.Query().Get(name) returns for a request
// whose RawQuery is rawQuery: the first value of name, skipping a pair
// that holds a ';' or a bad escape, and "" for a missing name or an empty
// value. It reads the query in one pass and builds no map of it.
func queryValue(rawQuery, name string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if key, ok := unescapeQuery(key); !ok || key != name {
			continue
		}
		if value, ok := unescapeQuery(value); ok {
			return value
		}
	}
	return ""
}

// unescapeQuery is url.QueryUnescape, called only on a string that holds
// an escape: a plain one is its own unescaping.
func unescapeQuery(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// requireParam fetches a mandatory query parameter, answering 400 when
// it is absent.
func requireParam(w http.ResponseWriter, r *http.Request, name string) (string, bool) {
	v := queryValue(r.URL.RawQuery, name)
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

// serveList answers a list endpoint: it reads n, asks fn for the list and
// writes it as JSON in one Write, answering 500 for a list JSON cannot
// represent rather than a 200 with no body.
func serveList(w http.ResponseWriter, r *http.Request, fn func(n int) ([]ScoredItem, error)) {
	n := 10
	if raw := queryValue(r.URL.RawQuery, "n"); raw != "" {
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
	buf := bodyPool.Get().(*[]byte)
	body, err := appendScoredJSON((*buf)[:0], list)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyPool.Put(buf)
	}
}

// appendScoredJSON appends to dst the bytes json.NewEncoder(w).Encode(list)
// writes: "[]" for a nil list, the fields Item and Score, encoding/json's
// number format and a trailing newline. A NaN or infinite score, which JSON
// cannot represent, is an error naming its item.
func appendScoredJSON(dst []byte, list []ScoredItem) ([]byte, error) {
	dst = append(dst, '[')
	for i, s := range list {
		if math.IsNaN(s.Score) || math.IsInf(s.Score, 0) {
			return dst, fmt.Errorf("item %q has score %v, which JSON cannot represent", s.Item, s.Score)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Item":`...)
		dst = appendJSONString(dst, s.Item)
		dst = append(dst, `,"Score":`...)
		dst = appendJSONFloat(dst, s.Score)
		dst = append(dst, '}')
	}
	return append(dst, ']', '\n'), nil
}

// appendJSONString appends s as a JSON string. An s holding any byte
// encoding/json would escape (a quote, a backslash, a control byte, <>&,
// or any non-ASCII byte, among which U+2028/9 and invalid UTF-8) goes
// through json.Marshal, so those rules stay encoding/json's own.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends a finite f in encoding/json's format: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up, with a
// single-digit negative exponent unpadded (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
