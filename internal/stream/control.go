package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// RebalanceRequest is what POST /control/rebalance carries.
type RebalanceRequest struct {
	Component   string `json:"component"`
	Parallelism int    `json:"parallelism"`
}

// maxRebalanceBody caps the request body; a rebalance request is a few
// dozen bytes.
const maxRebalanceBody = 1 << 20

// decodeRebalance reads a rebalance request from the query parameters
// component and parallelism or, when they do not name both, from a JSON
// body. It answers 400 itself and reports false when the parallelism
// parameter is not an integer or the body does not decode.
func decodeRebalance(w http.ResponseWriter, r *http.Request) (req RebalanceRequest, ok bool) {
	q := r.URL.Query()
	req.Component = q.Get("component")
	if raw := q.Get("parallelism"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("query parameter parallelism must be an integer, got %q", raw), http.StatusBadRequest)
			return req, false
		}
		req.Parallelism = v
	}
	if req.Component == "" || req.Parallelism == 0 {
		r.Body = http.MaxBytesReader(w, r.Body, maxRebalanceBody)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "need component and parallelism, as query parameters or a JSON body", http.StatusBadRequest)
			return req, false
		}
	}
	return req, true
}

// ServeRebalance is POST /control/rebalance for one running topology:
// 404 for a component it does not contain, 400 for any other refusal, and
// on success the component's live parallelism as JSON.
func (h *RunningTopology) ServeRebalance(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRebalance(w, r)
	if !ok {
		return
	}
	if err := h.Rebalance(req.Component, req.Parallelism); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrUnknownComponent) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(RebalanceRequest{req.Component, h.Parallelism(req.Component)}) // the client hung up
}
