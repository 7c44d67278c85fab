package tencentrec

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"tencentrec/internal/tdstore"
)

func newTestServer(t *testing.T) (*System, *httptest.Server) {
	t.Helper()
	sys, err := Open(SystemConfig{
		DataDir:  t.TempDir(),
		Features: Features{CF: true, CB: true, Ctr: true},
		Params:   Params{FlushInterval: 20 * time.Millisecond, WindowSessions: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Handler())
	t.Cleanup(func() {
		srv.Close()
		sys.Close()
	})
	return sys, srv
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func getList(t *testing.T, url string) []ScoredItem {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, resp.Status)
	}
	var out []ScoredItem
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHTTPFrontEnd(t *testing.T) {
	sys, srv := newTestServer(t)

	// Ingest a co-play cluster over HTTP.
	for _, user := range []string{"u1", "u2", "u3", "u4"} {
		for i, item := range []string{"show-a", "show-b"} {
			ts := t0.Add(time.Duration(i) * time.Second).UnixNano()
			resp := postJSON(t, srv.URL+"/action",
				`{"user":"`+user+`","item":"`+item+`","action":"play","ts":`+
					jsonInt(ts)+`}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /action = %s", resp.Status)
			}
		}
	}
	if err := sys.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	sims := getList(t, srv.URL+"/similar?item=show-a&n=5")
	if len(sims) == 0 || sims[0].Item != "show-b" {
		t.Fatalf("GET /similar = %v", sims)
	}
	// The body is encoding/json's encoding of the list the library call
	// answers, byte for byte.
	sresp, err := http.Get(srv.URL + "/similar?item=show-a&n=5")
	if err != nil {
		t.Fatal(err)
	}
	sbody, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.SimilarItems("show-a", 5)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := encodingJSON(direct); string(sbody) != string(want) {
		t.Fatalf("GET /similar body = %q, want encoding/json's %q", sbody, want)
	}
	hot := getList(t, srv.URL+"/hot?user=anyone&n=5")
	if len(hot) == 0 {
		t.Fatal("GET /hot returned nothing")
	}
	recs := getList(t, srv.URL+"/recommend?user=u1&n=5")
	// u1 rated both items; the slate comes from the complement and must
	// not be an error.
	_ = recs

	// Item registration + metrics.
	resp := postJSON(t, srv.URL+"/item", `{"id":"n1","terms":["alpha","beta"],"published_ns":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /item = %s", resp.Status)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "userHistory") {
		t.Fatalf("GET /metrics output missing components: %q", body)
	}
}

func TestHTTPControlRebalance(t *testing.T) {
	sys, srv := newTestServer(t)

	// Scale a bolt up via query parameters.
	resp := postJSON(t, srv.URL+"/control/rebalance?component=userHistory&parallelism=3", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance via query = %s", resp.Status)
	}
	if got := sys.Parallelism("userHistory"); got != 3 {
		t.Fatalf("parallelism after rebalance = %d, want 3", got)
	}
	// And back down via JSON body, checking the echoed state.
	r, err := http.Post(srv.URL+"/control/rebalance", "application/json",
		strings.NewReader(`{"component":"userHistory","parallelism":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("rebalance via body = %s", r.Status)
	}
	var out struct {
		Component   string `json:"component"`
		Parallelism int    `json:"parallelism"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Component != "userHistory" || out.Parallelism != 1 {
		t.Fatalf("rebalance response = %+v", out)
	}

	// Error paths: unknown component 404, bad parallelism / spout 400.
	resp = postJSON(t, srv.URL+"/control/rebalance?component=nope&parallelism=2", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown component = %s, want 404", resp.Status)
	}
	resp = postJSON(t, srv.URL+"/control/rebalance?component=spout&parallelism=2", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spout rebalance = %s, want 400", resp.Status)
	}
	resp = postJSON(t, srv.URL+"/control/rebalance?component=userHistory&parallelism=-1", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative parallelism = %s, want 400", resp.Status)
	}
	resp = postJSON(t, srv.URL+"/control/rebalance", "{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %s, want 400", resp.Status)
	}
}

// TestHTTPControlRebalanceRejectsNonInteger: a parallelism that is not an
// integer is a bad request, not parallelism 0 falling through to the body
// (which would answer 404).
func TestHTTPControlRebalanceRejectsNonInteger(t *testing.T) {
	_, srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/control/rebalance?component=c&parallelism=abc", `{"component":"nope","parallelism":2}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-integer parallelism = %s, want 400", resp.Status)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/action", "{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed action = %s", resp.Status)
	}
	resp = postJSON(t, srv.URL+"/item", "{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed item = %s", resp.Status)
	}
	// Unknown routes 404.
	r, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %s", r.Status)
	}
}

func TestHTTPBodyLimit(t *testing.T) {
	_, srv := newTestServer(t)
	// A body past the 1 MiB cap is rejected with 413, not buffered.
	huge := `{"user":"u1","item":"` + strings.Repeat("x", 2<<20) + `","action":"click"}`
	for _, path := range []string{"/action", "/item"} {
		resp := postJSON(t, srv.URL+path, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with %d-byte body = %s, want 413", path, len(huge), resp.Status)
		}
	}
}

func TestHTTPAdsEndpoint(t *testing.T) {
	sys, srv := newTestServer(t)
	for i := 0; i < 25; i++ {
		ts := t0.Add(time.Duration(i) * time.Second).UnixNano()
		postJSON(t, srv.URL+"/action",
			`{"user":"x","item":"ad-1","action":"impression","gender":"m","age":"20-30","region":"beijing","ts":`+jsonInt(ts)+`}`)
		if i < 10 {
			postJSON(t, srv.URL+"/action",
				`{"user":"x","item":"ad-1","action":"ad_click","gender":"m","age":"20-30","region":"beijing","ts":`+jsonInt(ts)+`}`)
		}
	}
	if err := sys.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ads := getList(t, srv.URL+"/ads?region=beijing&gender=m&age=20-30&n=3")
	if len(ads) == 0 || ads[0].Item != "ad-1" {
		t.Fatalf("GET /ads = %v", ads)
	}
}

func TestHTTPMetricsContentNegotiation(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []struct {
		name    string
		accept  string
		query   string
		want    []string // substrings the body must contain
		ctype   string   // required Content-Type prefix, "" = any
		exclude string   // substring the body must not contain
	}{
		{
			name: "default is the monitor table",
			want: []string{"userHistory", "p50-exec", "p99-exec"},
			// The table must not be the Prometheus exposition.
			exclude: "# TYPE",
		},
		{
			name:   "prometheus via accept header",
			accept: "text/plain; version=0.0.4; charset=utf-8",
			want:   []string{"# TYPE stream_emitted_total counter", "http_request_seconds_bucket"},
			ctype:  "text/plain; version=0.0.4",
		},
		{
			name:   "prometheus via openmetrics accept",
			accept: "application/openmetrics-text",
			want:   []string{"# TYPE stream_execute_seconds histogram"},
		},
		{
			name:  "prometheus via query parameter",
			query: "?format=prometheus",
			want:  []string{"tdstore_op_seconds_count", "tdaccess_published_total"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("GET", srv.URL+"/metrics"+tc.query, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /metrics = %s", resp.Status)
			}
			if tc.ctype != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), tc.ctype) {
				t.Errorf("Content-Type = %q, want prefix %q", resp.Header.Get("Content-Type"), tc.ctype)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(body), want) {
					t.Errorf("body missing %q:\n%s", want, body)
				}
			}
			if tc.exclude != "" && strings.Contains(string(body), tc.exclude) {
				t.Errorf("body unexpectedly contains %q", tc.exclude)
			}
		})
	}
}

func TestHTTPQueryValidation(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []struct {
		name string
		path string
		body string // non-empty: POST it as JSON
		want int
		says string // substring a refusal must contain
	}{
		{"action without user", "/action", `{"item":"i1","action":"click"}`, http.StatusBadRequest, `"user"`},
		{"action with empty item", "/action", `{"user":"u1","item":"","action":"click"}`, http.StatusBadRequest, `"item"`},
		{"action without action", "/action", `{"user":"u1","item":"i1"}`, http.StatusBadRequest, `"action"`},
		{"action well-formed", "/action", `{"user":"u1","item":"i1","action":"click"}`, http.StatusAccepted, ""},
		{"action twice in one body", "/action", `{"user":"u1","item":"i1","action":"click"}{"user":"u1","item":"i2","action":"click"}`, http.StatusBadRequest, "more than one JSON value"},
		{"action followed by garbage", "/action", `{"user":"u1","item":"i1","action":"click"} x`, http.StatusBadRequest, "more than one JSON value"},
		{"action followed by a newline", "/action", "{\"user\":\"u1\",\"item\":\"i1\",\"action\":\"click\"}\n", http.StatusAccepted, ""},
		{"item without id", "/item", `{"terms":["alpha"],"published_ns":1}`, http.StatusBadRequest, `"id"`},
		{"item with empty id", "/item", `{"id":"","terms":["alpha"]}`, http.StatusBadRequest, `"id"`},
		{"item well-formed", "/item", `{"id":"n9","terms":["alpha"],"published_ns":1}`, http.StatusAccepted, ""},
		{"item twice in one body", "/item", `{"id":"n9","terms":["alpha"]}{"id":"n10","terms":["beta"]}`, http.StatusBadRequest, "more than one JSON value"},
		{"item followed by garbage", "/item", `{"id":"n9","terms":["alpha"]}]`, http.StatusBadRequest, "more than one JSON value"},
		{"item followed by a newline", "/item", "{\"id\":\"n9\",\"terms\":[\"alpha\"]}\n", http.StatusAccepted, ""},
		{"recommend without user", "/recommend", "", http.StatusBadRequest, ""},
		{"similar without item", "/similar?n=5", "", http.StatusBadRequest, ""},
		{"hot without user", "/hot", "", http.StatusBadRequest, ""},
		{"recommend with non-numeric n", "/recommend?user=u1&n=abc", "", http.StatusBadRequest, ""},
		{"recommend with negative n", "/recommend?user=u1&n=-3", "", http.StatusBadRequest, ""},
		{"similar with zero n", "/similar?item=i1&n=0", "", http.StatusBadRequest, ""},
		{"recommend with oversized n", "/recommend?user=u1&n=1001", "", http.StatusBadRequest, ""},
		{"hot at the n cap", "/hot?user=u1&n=1000", "", http.StatusOK, ""},
		{"recommend well-formed", "/recommend?user=u1&n=5", "", http.StatusOK, ""},
		{"similar well-formed", "/similar?item=i1", "", http.StatusOK, ""},
		{"hot well-formed", "/hot?user=u1&n=3", "", http.StatusOK, ""},
		{"ads tolerates empty context", "/ads", "", http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.body != "" {
				resp, err = http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
			} else {
				resp, err = http.Get(srv.URL + tc.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			msg, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.want || !strings.Contains(string(msg), tc.says) {
				t.Errorf("%s = %d %q, want %d naming %s", tc.path, resp.StatusCode, msg, tc.want, tc.says)
			}
		})
	}
}

func TestHTTPDebugEndpoints(t *testing.T) {
	_, srv := newTestServer(t)

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not a JSON object: %v", err)
	}
	if _, ok := vars["stream_emitted_total"]; !ok {
		t.Errorf("/debug/vars missing stream_emitted_total, got keys %d", len(vars))
	}

	tresp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var traces []json.RawMessage
	if err := json.NewDecoder(tresp.Body).Decode(&traces); err != nil {
		t.Fatalf("/debug/traces is not a JSON array: %v", err)
	}
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestHTTPControlCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(SystemConfig{
		DataDir:     dir,
		StoreEngine: "ldb",
		Params:      Params{FlushInterval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()

	publishCluster(t, sys)
	resp := postJSON(t, srv.URL+"/control/checkpoint", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /control/checkpoint = %s", resp.Status)
	}
	if _, err := tdstore.LoadCheckpoint(sys.cfg.CheckpointDir); err != nil {
		t.Fatalf("checkpoint endpoint left no loadable manifest: %v", err)
	}

	resp = postJSON(t, srv.URL+"/control/checkpoint?timeout=bogus", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout = %s, want 400", resp.Status)
	}
}

// encodingJSON is what the list endpoints answered before they encoded by
// appending: encoding/json's Encode of the list, an empty list for nil.
func encodingJSON(list []ScoredItem) ([]byte, error) {
	if list == nil {
		list = []ScoredItem{}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(list)
	return buf.Bytes(), err
}

func TestScoredJSONMatchesEncodingJSON(t *testing.T) {
	ids := []string{"i1", "", `q"uote`, `back\slash`, "nul\x00", "bs\b", "<a>&b", "ls\u2028ps\u2029",
		"bad\xffutf8", "café 新闻", "del\x7f", "tab\tnl\n"}
	scores := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 0.1, -0.25, 123456789.125,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 3.3e-9}
	lists := [][]ScoredItem{nil, {}}
	for _, id := range ids {
		lists = append(lists, []ScoredItem{{Item: id, Score: 0.5}})
	}
	for _, s := range scores {
		lists = append(lists, []ScoredItem{{Item: "i1", Score: s}})
	}
	all := make([]ScoredItem, 0, len(ids)*len(scores))
	for i, id := range ids {
		for _, s := range scores {
			all = append(all, ScoredItem{Item: id + strconv.Itoa(i), Score: s})
		}
	}
	lists = append(lists, all)
	for _, list := range lists {
		want, err := encodingJSON(list)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendScoredJSON([]byte("prefix"), list)
		if err != nil || string(got) != "prefix"+string(want) {
			t.Errorf("appendScoredJSON(%#v) = %q, %v; encoding/json writes %q", list, got, err, want)
		}
	}
}

func FuzzScoredJSON(f *testing.F) {
	f.Add("i1", 0.5)
	f.Add(`<" ">`, 1e-7)
	f.Add("\xff", 1e21)
	f.Add("nan", math.NaN())
	f.Add("inf", math.Inf(-1))
	f.Fuzz(func(t *testing.T, id string, score float64) {
		for _, list := range [][]ScoredItem{
			{{Item: id, Score: score}},
			{{Item: "head", Score: 1}, {Item: id, Score: score}},
		} {
			want, werr := encodingJSON(list)
			got, gerr := appendScoredJSON(nil, list)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("errors differ for %#v: encoding/json %v, appendScoredJSON %v", list, werr, gerr)
			}
			if werr == nil && string(got) != string(want) {
				t.Fatalf("appendScoredJSON(%#v) = %q, encoding/json writes %q", list, got, want)
			}
		}
	})
}

func FuzzQueryValue(f *testing.F) {
	f.Add("user=u1&n=10", "user")
	f.Add("n=1;x&n=2&n=3", "n")
	f.Add("us%65r=a+b&user=c", "user")
	f.Add("item=%zz&item=ok", "item")
	f.Add("=v&&x", "")
	f.Add("format", "format")
	f.Fuzz(func(t *testing.T, raw, name string) {
		want := (&url.URL{RawQuery: raw}).Query().Get(name)
		if got := queryValue(raw, name); got != want {
			t.Fatalf("queryValue(%q, %q) = %q, url.Values.Get gives %q", raw, name, got, want)
		}
	})
}

func TestServeListRefusesUnencodableScore(t *testing.T) {
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := httptest.NewRecorder()
		serveList(w, httptest.NewRequest("GET", "/similar?item=a", nil), func(int) ([]ScoredItem, error) {
			return []ScoredItem{{Item: "fine", Score: 1}, {Item: "broken", Score: score}}, nil
		})
		if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), `"broken"`) {
			t.Errorf("score %v: %d %q, want 500 naming the item", score, w.Code, w.Body.String())
		}
	}
}
