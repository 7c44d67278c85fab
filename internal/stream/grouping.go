package stream

import (
	"fmt"
	"math/rand"
)

// GroupingKind enumerates the stream groupings supported by the engine,
// mirroring the Storm groupings TencentRec uses ("stream grouping" in §5.2,
// field grouping in Fig. 7's XML).
type GroupingKind int

const (
	// ShuffleGrouping distributes tuples across tasks uniformly at random.
	ShuffleGrouping GroupingKind = iota
	// FieldsGrouping routes tuples by the hash of selected fields, so
	// every tuple with the same key reaches the same task. This is the
	// guarantee behind the paper's single-writer-per-item-pair claim.
	FieldsGrouping
)

// String returns the XML/config name of the grouping.
func (k GroupingKind) String() string {
	switch k {
	case ShuffleGrouping:
		return "shuffle"
	case FieldsGrouping:
		return "field"
	}
	return "unknown"
}

// Grouping describes how one subscription routes tuples to a bolt's tasks.
type Grouping struct {
	Kind GroupingKind
	// Fields selects the key fields for FieldsGrouping.
	Fields Fields
}

// ParseGrouping is the inverse of GroupingKind.String for every topology
// description: Fig. 7's <grouping type="field"> and a Graph's
// InputSpec.Grouping both come through here. "" means shuffle, "fields"
// is accepted for "field", and a field grouping needs its key fields.
func ParseGrouping(name string, fields Fields) (Grouping, error) {
	switch name {
	case "", "shuffle":
		return Grouping{Kind: ShuffleGrouping}, nil
	case "field", "fields":
		if len(fields) == 0 {
			return Grouping{}, fmt.Errorf("field grouping needs fields")
		}
		return Grouping{Kind: FieldsGrouping, Fields: fields}, nil
	}
	return Grouping{}, fmt.Errorf("unknown grouping %q", name)
}

// NumPartitions is the fixed logical-partition count of the routing layer.
// Fields grouping hashes a key to one of these partitions, and a mutable
// per-component assignment table maps partitions to live tasks. The key →
// partition mapping never changes, so scaling a component up or down only
// rewrites the partition → task table; every key stays on a stable logical
// partition across rebalances (the Storm `rebalance` analog). Power of two
// so the partition pick is a mask, and — for task counts that divide it —
// (hash & mask) % n equals the pre-partition hash % n routing exactly.
const NumPartitions = 256

const partMask = NumPartitions - 1

// assignment is an immutable snapshot of one component's live tasks and
// its partition→task table. Emitters load it atomically per emit; a
// rebalance installs a fresh assignment only after the topology has
// drained, so no emitter ever holds buffered tuples routed under a
// superseded assignment (see runtime.rebalance).
type assignment struct {
	tasks []*task
	// parts maps logical partition → index into tasks. Only fields
	// grouping consults it; shuffle picks from len(tasks) alone.
	parts [NumPartitions]int32
}

// newAssignment builds the round-robin partition table over tasks. With
// all of a component's tasks replaced fresh on rebalance (state lives in
// the external store), partition affinity carries no value, so the table
// simply spreads partitions as evenly as possible.
func newAssignment(tasks []*task) *assignment {
	a := &assignment{tasks: tasks}
	n := int32(len(tasks))
	for p := range a.parts {
		a.parts[p] = int32(p) % n
	}
	return a
}

// route returns the task a tuple goes to under an assignment: one task,
// whatever the grouping. rng is the per-dispatcher random source used by
// shuffle grouping.
func (g Grouping) route(t *Tuple, a *assignment, rng *rand.Rand) int {
	if g.Kind == ShuffleGrouping {
		return rng.Intn(len(a.tasks))
	}
	if len(a.tasks) == 1 {
		return 0 // one task owns every partition: nothing to hash
	}
	return int(a.parts[hashValues(t, g.Fields)&partMask])
}
