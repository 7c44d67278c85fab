package stream

// Row is one row of a Run: its own grouping key and a small fixed payload.
type Row struct {
	// Key stands where the Run stands in the tuple when the row is routed:
	// a fields grouping over the run's field hashes it exactly as it would
	// the same string in a tuple of its own.
	Key string
	// Str and Num are the row's payload, named by the emitting component
	// (a pair delta is {pair, "", delta}; a similarity {item, other, sim}).
	Str string
	Num float64
}

// Run is a keyed run: many rows that share a tuple's other fields, carried
// as one value. It is the sender-side half of the §5.3 combiner: what
// would be len(run) tuples, each pooled, hashed, batched, timed and
// executed alone, costs one of each per destination task. The contract is
// DESIGN.md §10 "Keyed runs"; in short:
//
//   - A fields grouping that names the run's field routes row by row
//     against the assignment current at emit time, and each destination
//     task receives one tuple holding its rows in emit order. A row's
//     partition is bit-identical to the one hashValues gives a plain tuple
//     with Row.Key in that field; with one destination task no row is
//     hashed. Every other grouping routes the tuple whole.
//   - Each delivered tuple is one anchored delivery, one trace span and one
//     Execute, however many rows it holds. Emitted counts rows (a plain
//     tuple is a run of one), Transferred deliveries, Executed calls.
//   - The emitter gives up the run's and the Values' backing arrays at
//     emit; receivers only read them, because one array may be delivered
//     to several subscribers. A run of no rows emits nothing, and a tuple
//     carries at most one Run.
type Run []Row

// Run returns the named field's value as a Run, nil if it is not one.
func (t *Tuple) Run(field string) Run {
	r, _ := t.Value(field).(Run)
	return r
}

// findRun returns the Run among values and its position, or -1.
func findRun(values Values) (int, Run) {
	for i, v := range values {
		if run, ok := v.(Run); ok {
			return i, run
		}
	}
	return -1, nil
}

// hashRow is hashValues for one row of the run t carries: the row's key is
// hashed where the run stands.
func hashRow(t *Tuple, fields Fields, key string) uint64 {
	h := uint64(fnvOffset64)
	for _, f := range fields {
		v, ok := t.TryValue(f)
		if !ok {
			continue
		}
		if _, isRun := v.(Run); isRun {
			h = fnvString(h, key)
		} else {
			h = hashValue(h, v)
		}
		h *= fnvPrime64
	}
	return h
}

// splitRun is emitTo's routing for an edge whose fields grouping names the
// run's field and has several tasks: probe.Values[ri] is run, not empty, and
// each task that owns a row gets one tuple holding its rows.
func (c *collector) splitRun(eb *edgeBuf, probe *Tuple, ri int, run Run) {
	values, a := probe.Values, eb.a
	// A counting sort of the rows by destination task: stable, so a key's
	// rows keep their emit order.
	ends := c.routeBuf[:0]
	for range a.tasks {
		ends = append(ends, 0)
	}
	c.routeBuf = ends
	c.rowDest = c.rowDest[:0]
	for r := range run {
		d := a.parts[hashRow(probe, eb.edge.group.Fields, run[r].Key)&partMask]
		c.rowDest = append(c.rowDest, d)
		ends[d]++
	}
	dests, pos := 0, 0
	for d, n := range ends {
		if n > 0 {
			dests++
		}
		ends[d] = pos // the segment's start, advanced to its end below
		pos += n
	}
	if dests == 1 {
		c.send(eb, int(c.rowDest[0]), probe, values)
		return
	}
	rows := make(Run, len(run))
	for r, d := range c.rowDest {
		rows[ends[d]] = run[r]
		ends[d]++
	}
	vals := make(Values, dests*len(values))
	start := 0
	for d, end := range ends {
		if end == start {
			continue
		}
		v := vals[:len(values):len(values)]
		vals = vals[len(values):]
		copy(v, values)
		v[ri] = rows[start:end:end]
		c.send(eb, d, probe, v)
		start = end
	}
}
