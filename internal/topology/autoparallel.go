package topology

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// The paper's first item of future work (§7): "the parallelism of the
// spouts and bolts in Storm topology is set manually at present. It is
// desirable for TencentRec to set the parallelism automatically
// according to the data size of specific applications."
//
// SuggestParallelism implements that: it replays a sample of the
// application's real traffic through a single-task calibration topology,
// measures each unit's per-action service demand from the topology
// metrics, and sizes every unit for a target ingest rate with headroom.

// autoParallelismSafety is the utilization headroom factor: units are
// sized so their projected utilization stays below 1/safety.
const autoParallelismSafety = 2.0

// SuggestParallelism returns per-unit task counts sized for
// targetRate actions/second, calibrated by running the sample through
// the feature set once (against a throwaway in-memory state).
// maxTasks bounds any single unit; 0 means the machine's core count.
func SuggestParallelism(sample []RawAction, p Params, feats Features, targetRate float64, maxTasks int) (Parallelism, error) {
	if len(sample) == 0 {
		return Parallelism{}, fmt.Errorf("topology: SuggestParallelism needs a traffic sample")
	}
	if targetRate <= 0 {
		return Parallelism{}, fmt.Errorf("topology: target rate must be positive")
	}
	if maxTasks <= 0 {
		maxTasks = runtime.NumCPU()
	}
	st := NewMemState()
	topo, err := NewBuilder("calibration", NewSliceSpout(sample), st, p).
		WithFeatures(feats).
		Build()
	if err != nil {
		return Parallelism{}, err
	}
	m, err := topo.Run(context.Background())
	if err != nil {
		return Parallelism{}, err
	}

	// Service demand of a unit per ingested action: its busy time —
	// executed × avg execute time, plus what a write-behind unit spent
	// flushing — over the sample.
	tasksFor := func(unit string) int {
		c, ok := m.Components[unit]
		if !ok || c.Executed == 0 {
			return 1
		}
		busy := time.Duration(c.Executed)*c.AvgExecute + c.FlushTime
		demand := busy.Seconds() / float64(len(sample)) // CPU-seconds per action
		tasks := int(math.Ceil(targetRate * demand * autoParallelismSafety))
		if tasks < 1 {
			tasks = 1
		}
		if tasks > maxTasks {
			tasks = maxTasks
		}
		return tasks
	}

	out := Parallelism{
		Spout:        1,
		Pretreatment: tasksFor(UnitPretreatment),
		UserHistory:  tasksFor(UnitUserHistory),
		ItemCount:    tasksFor(UnitItemCount),
		PairCount:    tasksFor(UnitPairCount),
		Storage:      tasksFor(UnitResultStorage),
		DB:           tasksFor(UnitDB),
	}
	if feats.AR {
		out.AR = maxInt(tasksFor(UnitAR), tasksFor(UnitARItem))
	}
	if feats.CB {
		out.CB = tasksFor(UnitCB)
	}
	if feats.Ctr {
		out.Ctr = maxInt(tasksFor(UnitCtrStore), tasksFor(UnitCtr))
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
