package tdaccess

import (
	"fmt"
	"slices"

	"tencentrec/internal/obsv"
)

// Consumer reads messages from a topic as part of a consumer group.
// Partitions of the topic are divided among the group's members by the
// master, and each member reads its partitions' logs directly. Committed
// offsets are stored broker-side per group, so a consumer restart (or a
// replacement member) resumes where the group left off (§3.2).
type Consumer struct {
	b     *Broker
	id    string
	group string

	t        *topic
	epoch    int64
	assigned []int
	// positions tracks the next offset to read per assigned partition,
	// starting from the group's committed offsets.
	positions map[int]int64
	// bodies is Poll's scratch for one partition's records, cleared
	// before Poll returns.
	bodies [][]byte
}

// NewConsumer returns a consumer that joins the named group.
func (b *Broker) NewConsumer(group string) *Consumer {
	b.mu.Lock()
	b.nextCID++
	id := fmt.Sprintf("consumer-%d", b.nextCID)
	b.mu.Unlock()
	return &Consumer{b: b, id: id, group: group}
}

// Subscribe joins the group for the given topic, triggering a rebalance.
func (c *Consumer) Subscribe(topicName string) error {
	t, err := c.b.topic(topicName)
	if err != nil {
		return err
	}
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if c.b.closed {
		return ErrClosed
	}
	gk := groupKey{c.group, topicName}
	gs := c.b.groups[gk]
	if gs == nil {
		gs = &groupState{offsets: make([]int64, len(t.parts))}
		c.b.groups[gk] = gs
	}
	if slices.Contains(gs.members, c.id) {
		return nil // already subscribed
	}
	gs.members = append(gs.members, c.id)
	gs.rebalance()
	c.t = t
	c.epoch = -1 // force assignment refresh on next poll
	return nil
}

// Unsubscribe removes this consumer from the group, triggering a
// rebalance among the remaining members.
func (c *Consumer) Unsubscribe() {
	if c.t == nil {
		return
	}
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	gk := groupKey{c.group, c.t.name}
	gs := c.b.groups[gk]
	if gs != nil {
		gs.members = slices.DeleteFunc(gs.members, func(m string) bool { return m == c.id })
		gs.rebalance()
	}
	c.t = nil
	c.assigned = nil
	c.positions = nil
}

// refreshAssignment re-reads the group's assignment when the epoch moved.
// On a closed broker it returns ErrClosed.
func (c *Consumer) refreshAssignment() error {
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if c.b.closed {
		return ErrClosed
	}
	gk := groupKey{c.group, c.t.name}
	gs := c.b.groups[gk]
	if gs == nil {
		return fmt.Errorf("tdaccess: consumer %s polled before Subscribe", c.id)
	}
	if gs.epoch == c.epoch {
		return nil
	}
	c.assigned = gs.assignment(c.id, len(c.t.parts))
	positions := make(map[int]int64, len(c.assigned))
	for _, p := range c.assigned {
		if old, ok := c.positions[p]; ok {
			positions[p] = old
		} else {
			positions[p] = gs.offsets[p]
		}
	}
	c.positions = positions
	c.epoch = gs.epoch
	return nil
}

// Poll returns up to max messages across this consumer's partitions,
// advancing its read positions (uncommitted until Commit). Payloads
// alias the buffers the poll read (see plog.ReadFrom); they are the
// caller's from here on and the consumer keeps no reference to them.
func (c *Consumer) Poll(max int) ([]Message, error) {
	if c.t == nil {
		return nil, fmt.Errorf("tdaccess: consumer %s polled before Subscribe", c.id)
	}
	if err := c.refreshAssignment(); err != nil {
		return nil, err
	}
	// Size the result once, from what the partitions hold right now.
	want := 0
	for _, p := range c.assigned {
		if ahead := c.t.parts[p].log.NextOffset() - c.positions[p]; ahead > 0 {
			want += int(min(ahead, int64(max-want)))
		}
	}
	var out []Message
	if want > 0 {
		out = make([]Message, 0, want)
	}
	defer func() { clear(c.bodies) }()
	ins := c.b.ins.Load()
	for _, p := range c.assigned {
		if len(out) >= max {
			break
		}
		ph := c.t.parts[p]
		pos := c.positions[p]
		var err error
		c.bodies, err = ph.log.ReadFrom(c.bodies[:0], pos, max-len(out))
		if err != nil {
			return out, err
		}
		for i, body := range c.bodies {
			key, payload, err := decodeMessage(body)
			if err != nil {
				return out, err
			}
			out = append(out, Message{
				Topic:     c.t.name,
				Partition: p,
				Offset:    pos + int64(i),
				Key:       key,
				Payload:   payload,
			})
		}
		if ins != nil && len(c.bodies) > 0 {
			ins.consumed.Add(int64(len(c.bodies)))
			now := obsv.Now()
			for i := range c.bodies {
				if at, ok := ph.stamps.lookup(pos + int64(i)); ok {
					ins.lag.Observe(now - at)
				}
			}
		}
		c.positions[p] = pos + int64(len(c.bodies))
	}
	return out, nil
}

// Commit persists this consumer's positions as the group's committed
// offsets for its partitions.
func (c *Consumer) Commit() error {
	if c.t == nil {
		return fmt.Errorf("tdaccess: consumer %s committed before Subscribe", c.id)
	}
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	gs := c.b.groups[groupKey{c.group, c.t.name}]
	if gs == nil {
		return fmt.Errorf("tdaccess: unknown group %q", c.group)
	}
	for p, pos := range c.positions {
		if pos > gs.offsets[p] {
			gs.offsets[p] = pos
		}
	}
	return nil
}
