// Package events is the campaign's wall-clock observation plane. The
// Timeline is the engine's one scheduler hook: it keeps the live
// per-cell state and the per-worker schedule, and publishes each
// batch/cell lifecycle event on a broadcast bus that fans it out to
// bounded per-subscriber buffers, with a retained ring for
// Last-Event-ID replay. Everything in it is wall-clock-side
// observability — event IDs, offsets and queue/run times exist only on
// this bus and on the surfaces that serve it (SSE /events, /schedule,
// the -schedule export), never in deterministic campaign artifacts.
//
// The bus never blocks a publisher: a subscriber whose buffer is full
// loses the event and the loss is counted, per subscriber and in the
// bus total, so a slow SSE client can stall itself but not the worker
// pool settling cells.
package events

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event types published by the campaign.
const (
	// TypeBatchStarted announces a batch: Cells carries the batch size.
	TypeBatchStarted = "batch_started"
	// TypeCellStarted fires when a worker picks a cell up: Worker and
	// QueueNS carry its scheduling placement.
	TypeCellStarted = "cell_started"
	// TypeCellFinished fires when the engine settles a cell: WallNS is
	// the observed run time, Class/Error the failure record if any, and
	// Events/Dropped the cell's telemetry activity when profiled.
	TypeCellFinished = "cell_finished"
	// TypeCampaignDone is the terminal event Timeline.CampaignDone
	// publishes once the campaign body returns: Cells settled, Failed
	// of them failed.
	TypeCampaignDone = "campaign_done"
)

// Event is one bus message, the SSE data payload. OffsetNS is wall
// time relative to the bus epoch — like every field here it is
// observational and never feeds a deterministic artifact.
type Event struct {
	// ID is the bus-assigned monotonic event ID, from 1.
	ID uint64 `json:"id"`
	// OffsetNS is the publish time relative to the bus epoch.
	OffsetNS int64 `json:"offset_ns"`
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// Cell is the cell identity for cell-scoped events.
	Cell string `json:"cell,omitempty"`
	// Worker is the worker index that owns the cell, -1 when no worker
	// ever did (batch events, undispatched cancels).
	Worker int `json:"worker"`
	// Cells is the batch size on TypeBatchStarted.
	Cells int `json:"cells,omitempty"`
	// QueueNS is the cell's dispatch latency (announce → pickup).
	QueueNS int64 `json:"queue_ns,omitempty"`
	// WallNS is the cell's observed run time on TypeCellFinished.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Class and Error carry the failure record for failed cells.
	Class string `json:"class,omitempty"`
	Error string `json:"error,omitempty"`
	// Events and Dropped are the cell's telemetry event count and
	// ring/sink drop count, when the runner profiled it.
	Events  uint64 `json:"events,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`
	// Failed is the failed-cell count on TypeCampaignDone.
	Failed int `json:"failed,omitempty"`
}

// Default bus sizing. The retention ring comfortably holds every event
// of a full-matrix campaign (102 cells ≈ 205 events), so a reconnecting
// subscriber replays the whole run; the subscriber buffer absorbs the
// burst a 3ms matrix produces faster than any HTTP client drains it.
const (
	DefaultRetain    = 4096
	DefaultSubBuffer = 256
)

// Subscriber is one bus subscription: a bounded event channel plus the
// subscription's drop counter.
type Subscriber struct {
	ch      chan Event
	dropped atomic.Uint64
}

// C is the subscription's event channel. It is closed by Unsubscribe
// and by Bus.Close.
func (s *Subscriber) C() <-chan Event { return s.ch }

// Dropped is the number of events this subscription lost to a full
// buffer since it was created.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// Stats is a bus snapshot for gauges.
type Stats struct {
	// Published is the total number of events published.
	Published uint64 `json:"published"`
	// Dropped is the total number of per-subscriber deliveries lost to
	// full buffers (one event missed by two subscribers counts twice).
	Dropped uint64 `json:"dropped"`
	// Subscribers is the current subscription count.
	Subscribers int `json:"subscribers"`
	// Retained is the number of events currently replayable.
	Retained int `json:"retained"`
}

// Bus is the broadcast event bus. The zero value is not usable; use
// NewBus. All methods are safe for concurrent use.
type Bus struct {
	epoch time.Time

	mu     sync.Mutex
	nextID uint64
	// ring holds the retained events. It grows to retain events, then
	// wraps: head indexes the oldest, which the next publish overwrites.
	ring      []Event
	head      int
	retain    int
	subBuf    int
	subs      map[*Subscriber]struct{}
	published uint64
	dropped   uint64
	closed    bool
}

// NewBus creates a bus retaining the last retain events for replay and
// giving each subscriber a buffer of subBuf events. Non-positive values
// select the defaults.
func NewBus(retain, subBuf int) *Bus {
	if retain <= 0 {
		retain = DefaultRetain
	}
	if subBuf <= 0 {
		subBuf = DefaultSubBuffer
	}
	return &Bus{
		epoch:  time.Now(),
		retain: retain,
		subBuf: subBuf,
		subs:   make(map[*Subscriber]struct{}),
	}
}

// Epoch is the bus creation time, the zero point of every OffsetNS.
func (b *Bus) Epoch() time.Time { return b.epoch }

// Publish assigns the event its ID and offset, retains it, and offers
// it to every subscriber without ever blocking: a full subscriber
// buffer drops the delivery and counts the loss. Publishing on a
// closed bus is a no-op.
func (b *Bus) Publish(ev Event) {
	off := time.Since(b.epoch).Nanoseconds()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.nextID++
	ev.ID = b.nextID
	ev.OffsetNS = off
	b.published++
	if len(b.ring) == b.retain {
		b.ring[b.head] = ev
		b.head = (b.head + 1) % b.retain
	} else {
		b.ring = append(b.ring, ev)
	}
	for sub := range b.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			b.dropped++
		}
	}
}

// Subscribe registers a subscription receiving every event published
// from now on.
func (b *Bus) Subscribe() *Subscriber {
	sub, _, _ := b.SubscribeFrom(^uint64(0))
	return sub
}

// SubscribeFrom registers a subscription resuming after event afterID
// (the SSE Last-Event-ID contract): the returned replay slice holds
// every retained event with ID > afterID, and the subscription's
// channel carries everything published after the call — the two are
// split under one lock, so together they are gapless. gap reports that
// the retention ring no longer reaches afterID+1, i.e. events between
// afterID and the replay's first event are lost to retention. Passing
// ^uint64(0) (or any ID at or past the bus head) subscribes live-only.
func (b *Bus) SubscribeFrom(afterID uint64) (sub *Subscriber, replay []Event, gap bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sub = &Subscriber{ch: make(chan Event, b.subBuf)}
	if b.closed {
		// A subscription on a closed bus still replays the retained
		// tail, then reads immediate end-of-stream.
		close(sub.ch)
	} else {
		b.subs[sub] = struct{}{}
	}
	for i := range b.ring {
		if ev := b.ring[(b.head+i)%len(b.ring)]; ev.ID > afterID {
			replay = append(replay, ev)
		}
	}
	if afterID < b.nextID {
		// The subscriber asked to resume inside the published range;
		// a gap exists unless retention still holds afterID+1.
		if len(b.ring) == 0 || b.ring[b.head].ID > afterID+1 {
			gap = true
		}
	}
	return sub, replay, gap
}

// Unsubscribe removes the subscription and closes its channel. It is
// idempotent and safe after Close.
func (b *Bus) Unsubscribe(sub *Subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[sub]; !ok {
		return
	}
	delete(b.subs, sub)
	close(sub.ch)
}

// Close closes every subscription channel and stops accepting events.
// Subscribers observe end-of-stream after draining their buffers, so
// an SSE handler's read loop terminates on its own.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		delete(b.subs, sub)
		close(sub.ch)
	}
}

// Stats snapshots the bus counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		Published:   b.published,
		Dropped:     b.dropped,
		Subscribers: len(b.subs),
		Retained:    len(b.ring),
	}
}

// LastID is the most recently assigned event ID (0 before any publish).
func (b *Bus) LastID() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextID
}
