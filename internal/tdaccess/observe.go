package tdaccess

import (
	"strconv"
	"sync"

	"tencentrec/internal/obsv"
)

// brokerInstruments holds an instrumented broker's pre-resolved
// instruments. Reached through one nil-checked atomic pointer per
// operation, so an uninstrumented broker pays nothing beyond the branch.
type brokerInstruments struct {
	reg       *obsv.Registry
	published *obsv.Counter
	consumed  *obsv.Counter
	lag       *obsv.Histogram
}

// pubStampRing is the per-partition ring of publish timestamps kept for
// publish→consume lag measurement. A consumer more than this many
// messages behind simply stops contributing lag samples (its entries
// have been overwritten) — backlog gauges cover that regime instead.
const pubStampRing = 512

// pubStamps records when recent offsets of one partition were published.
// Entries are offset-validated: a lookup whose slot has been reused by a
// newer offset reports a miss rather than a bogus lag.
type pubStamps struct {
	mu  sync.Mutex
	off [pubStampRing]int64 // offset+1; 0 marks an empty slot
	at  [pubStampRing]int64 // obsv.Now() at publish
}

func (s *pubStamps) record(off, at int64) {
	i := off % pubStampRing
	s.mu.Lock()
	s.off[i] = off + 1
	s.at[i] = at
	s.mu.Unlock()
}

func (s *pubStamps) lookup(off int64) (int64, bool) {
	i := off % pubStampRing
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.off[i] != off+1 {
		return 0, false
	}
	return s.at[i], true
}

// Instrument binds the broker's traffic to the registry:
// tdaccess_published_total / tdaccess_consumed_total message counters,
// the tdaccess_consume_lag_seconds publish→consume latency histogram
// (sampled from a bounded per-partition ring of publish timestamps), and
// tdaccess_backlog_messages{topic,partition} gauges reading each
// partition's unconsumed depth at exposition time. Topics created after
// Instrument register their gauges on creation. Call at setup, before
// producers and consumers run.
func (b *Broker) Instrument(r *obsv.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ins := &brokerInstruments{
		reg:       r,
		published: r.Counter("tdaccess_published_total", "Messages published through TDAccess."),
		consumed:  r.Counter("tdaccess_consumed_total", "Messages returned to consumers by Poll."),
		lag:       r.Histogram("tdaccess_consume_lag_seconds", "Publish-to-consume latency of polled messages."),
	}
	for _, t := range *b.topics.Load() {
		b.registerTopicGaugesLocked(ins, t)
	}
	// Stored after the stamp rings: whoever loads ins finds them.
	b.ins.Store(ins)
}

// registerTopicGaugesLocked attaches per-partition backlog gauges and
// publish-stamp rings to a topic. Caller holds b.mu.
func (b *Broker) registerTopicGaugesLocked(ins *brokerInstruments, t *topic) {
	name := t.name
	for p, ph := range t.parts {
		if ph.stamps == nil {
			ph.stamps = &pubStamps{}
		}
		ins.reg.GaugeFunc("tdaccess_backlog_messages",
			"Messages behind the slowest consumer group (whole log when no group).",
			func() int64 { return b.partitionBacklog(name, p) },
			"topic", name, "partition", strconv.Itoa(p))
	}
}

// partitionBacklog reports how many appended messages the slowest
// consumer group of a topic has not yet committed for one partition.
// With no consumer groups the whole log is the backlog.
func (b *Broker) partitionBacklog(topicName string, p int) int64 {
	ph, err := b.partition(topicName, p)
	if err != nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	next := ph.log.NextOffset() // under b.mu: no commit passes it meanwhile
	minOff := int64(0)
	first := true
	for gk, offsets := range b.groups {
		if gk.topic != topicName || p >= len(offsets) {
			continue
		}
		if first || offsets[p] < minOff {
			minOff = offsets[p]
			first = false
		}
	}
	return next - minOff
}
