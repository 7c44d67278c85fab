package tdaccess

import "tencentrec/internal/obsv"

// Producer publishes application data into TDAccess. A producer looks up
// the topic's partition table once it exists, with no lock, and appends to
// the partition's log, in the parallelism of partitions (§3.2).
type Producer struct {
	b *Broker
}

// NewProducer returns a producer bound to the broker.
func (b *Broker) NewProducer() *Producer { return &Producer{b: b} }

// Send publishes payload to topic under key and returns the partition and
// offset assigned. An empty key distributes round-robin; a non-empty key
// always lands in the same partition, preserving per-key order. The only
// lock it takes is the partition log's.
func (p *Producer) Send(topicName, key string, payload []byte) (partition int, offset int64, err error) {
	t, err := p.b.topic(topicName)
	if err != nil {
		return 0, 0, err
	}
	part := t.partitionFor(key)
	ph := t.parts[part]
	off, err := appendMessage(ph.log, key, payload)
	if err != nil {
		return 0, 0, err
	}
	if ins := p.b.ins.Load(); ins != nil {
		ins.published.Inc()
		ph.stamps.record(off, obsv.Now())
	}
	return part, off, nil
}
