package tdaccess

import (
	"fmt"

	"tencentrec/internal/obsv"
)

// Producer publishes application data into TDAccess. Producers first
// consult the master for the topic's partition layout (implicit in
// getOrCreateTopic) and then write to data servers directly, in the
// parallelism of partitions (§3.2).
type Producer struct {
	b *Broker
}

// NewProducer returns a producer bound to the broker.
func (b *Broker) NewProducer() *Producer { return &Producer{b: b} }

// Send publishes payload to topic under key and returns the partition and
// offset assigned. An empty key distributes round-robin; a non-empty key
// always lands in the same partition, preserving per-key order.
func (p *Producer) Send(topicName, key string, payload []byte) (partition int, offset int64, err error) {
	t, err := p.b.getOrCreateTopic(topicName)
	if err != nil {
		return 0, 0, err
	}
	p.b.mu.Lock()
	part := t.partitionFor(key)
	ph := t.parts[part]
	down := p.b.serverDown[ph.server]
	ins := p.b.ins
	p.b.mu.Unlock()
	if down {
		return 0, 0, fmt.Errorf("tdaccess: data server %d serving %s/%d is down", ph.server, topicName, part)
	}
	off, err := appendMessage(ph.log, key, payload)
	if err != nil {
		return 0, 0, err
	}
	if ins != nil {
		ins.published.Inc()
		ph.stamps.record(off, obsv.Now())
	}
	return part, off, nil
}
