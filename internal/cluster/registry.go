package cluster

import (
	"sort"

	"tencentrec/internal/stream"
)

// Kinds resolves the kind names of a Spec: the same stream.Registry type
// a Fig. 7 file's classes resolve through. Because the supervisor and
// every worker run the same binary, a kind added at init time exists
// identically on both sides: the supervisor builds the whole graph with
// it to validate a spec, each worker its slice. It must hold the same
// kinds, making the same declared outputs from the same params, in both —
// fill it from init functions only. The names "__in" and "__out" are
// reserved for the proxies a worker adds to its own copy.
var Kinds = &stream.Registry{
	Spouts: map[string]stream.SpoutClass{},
	Bolts:  map[string]stream.BoltClass{},
}

// kindNames returns the registered kind names, sorted, for the
// supervisor's status endpoint.
func kindNames() (spouts, bolts []string) {
	for k := range Kinds.Spouts {
		spouts = append(spouts, k)
	}
	for k := range Kinds.Bolts {
		bolts = append(bolts, k)
	}
	sort.Strings(spouts)
	sort.Strings(bolts)
	return spouts, bolts
}
