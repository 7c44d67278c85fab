package tdaccess

import (
	"errors"
	"fmt"

	"tencentrec/internal/obsv"
)

// Consumer reads messages from a topic on behalf of a consumer group.
// Each consumer reads a fixed share of the topic's partitions straight
// from their logs, with no lock above them. Committed offsets are stored
// broker-side per group, so a consumer that replaces another resumes
// where the group left off (§3.2).
type Consumer struct {
	b     *Broker
	group string

	t *topic
	// assigned lists the partitions of this consumer's share, and
	// positions the next offset to read in each, starting from the
	// group's committed offsets.
	assigned  []int
	positions []int64
	// bodies is Poll's scratch for one partition's records, cleared
	// before Poll returns.
	bodies [][]byte
}

// errNotSubscribed is what a Poll or Commit before Subscribe returns.
var errNotSubscribed = errors.New("tdaccess: consumer used before Subscribe")

// NewConsumer returns a consumer of the named group.
func (b *Broker) NewConsumer(group string) *Consumer {
	return &Consumer{b: b, group: group}
}

// Subscribe reads every partition of the topic.
func (c *Consumer) Subscribe(topicName string) error {
	return c.SubscribeShare(topicName, 0, 1)
}

// SubscribeShare reads the partitions p of the topic with p ≡ index
// (mod n), from the group's committed offsets. n consumers with indexes
// 0…n-1 split the topic between them, each partition read by one; one
// whose index is not below the partition count reads nothing.
func (c *Consumer) SubscribeShare(topicName string, index, n int) error {
	if n < 1 || index < 0 || index >= n {
		return fmt.Errorf("tdaccess: share %d of %d", index, n)
	}
	t, err := c.b.topic(topicName)
	if err != nil {
		return err
	}
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if c.b.closed {
		return ErrClosed
	}
	offsets := c.b.groupOffsetsLocked(c.group, t)
	c.t, c.assigned, c.positions = t, nil, nil
	for p := index; p < len(t.parts); p += n {
		c.assigned = append(c.assigned, p)
		c.positions = append(c.positions, offsets[p])
	}
	return nil
}

// Poll returns up to max messages across this consumer's partitions,
// advancing its read positions (uncommitted until Commit). Payloads
// alias the buffers the poll read (see plog.ReadFrom); they are the
// caller's from here on and the consumer keeps no reference to them.
func (c *Consumer) Poll(max int) ([]Message, error) {
	if c.t == nil {
		return nil, errNotSubscribed
	}
	// Size the result once, from what the partitions hold right now.
	want := 0
	for i, p := range c.assigned {
		if ahead := c.t.parts[p].log.NextOffset() - c.positions[i]; ahead > 0 {
			want += int(min(ahead, int64(max-want)))
		}
	}
	var out []Message
	if want > 0 {
		out = make([]Message, 0, want)
	}
	defer func() { clear(c.bodies) }()
	ins := c.b.ins.Load()
	for i, p := range c.assigned {
		if len(out) >= max {
			break
		}
		ph := c.t.parts[p]
		pos := c.positions[i]
		var err error
		c.bodies, err = ph.log.ReadFrom(c.bodies[:0], pos, max-len(out))
		if err != nil {
			return out, err
		}
		for j, body := range c.bodies {
			key, payload, err := decodeMessage(body)
			if err != nil {
				return out, err
			}
			out = append(out, Message{
				Topic:     c.t.name,
				Partition: p,
				Offset:    pos + int64(j),
				Key:       key,
				Payload:   payload,
			})
		}
		if ins != nil && len(c.bodies) > 0 {
			ins.consumed.Add(int64(len(c.bodies)))
			now := obsv.Now()
			for j := range c.bodies {
				if at, ok := ph.stamps.lookup(pos + int64(j)); ok {
					ins.lag.Observe(now - at)
				}
			}
		}
		c.positions[i] = pos + int64(len(c.bodies))
	}
	return out, nil
}

// Commit persists this consumer's positions as the group's committed
// offsets for its partitions.
func (c *Consumer) Commit() error {
	if c.t == nil {
		return errNotSubscribed
	}
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	offsets := c.b.groupOffsetsLocked(c.group, c.t)
	for i, p := range c.assigned {
		offsets[p] = max(offsets[p], c.positions[i])
	}
	return nil
}
