package events

import (
	"sync"
	"testing"
)

// drain reads everything currently buffered on the subscriber without
// blocking.
func drain(sub *Subscriber) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestBusMonotonicIDs(t *testing.T) {
	b := NewBus(16, 16)
	sub := b.Subscribe()
	for i := 0; i < 5; i++ {
		b.Publish(Event{Type: TypeCellStarted, Cell: "c"})
	}
	got := drain(sub)
	if len(got) != 5 {
		t.Fatalf("got %d events, want 5", len(got))
	}
	for i, ev := range got {
		if ev.ID != uint64(i+1) {
			t.Fatalf("event %d: ID %d, want %d", i, ev.ID, i+1)
		}
		if ev.OffsetNS < 0 {
			t.Fatalf("event %d: negative offset %d", i, ev.OffsetNS)
		}
		if i > 0 && ev.OffsetNS < got[i-1].OffsetNS {
			t.Fatalf("event %d: offset went backwards (%d after %d)", i, ev.OffsetNS, got[i-1].OffsetNS)
		}
	}
	if b.LastID() != 5 {
		t.Fatalf("LastID = %d, want 5", b.LastID())
	}
}

// TestBusSlowConsumerDrops is the never-block contract: a subscriber
// that stops reading loses events — counted on the subscription and in
// the bus total — while the publisher sails through.
func TestBusSlowConsumerDrops(t *testing.T) {
	b := NewBus(1024, 4)
	slow := b.Subscribe()
	fast := b.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range fast.C() {
		}
	}()
	const n = 100
	for i := 0; i < n; i++ {
		b.Publish(Event{Type: TypeCellStarted}) // must never block
	}
	if got := slow.Dropped(); got != n-4 {
		t.Fatalf("slow subscriber dropped %d, want %d", got, n-4)
	}
	if got := len(drain(slow)); got != 4 {
		t.Fatalf("slow subscriber retained %d buffered events, want 4", got)
	}
	st := b.Stats()
	if st.Published != n {
		t.Fatalf("Stats.Published = %d, want %d", st.Published, n)
	}
	if st.Dropped < n-4 {
		t.Fatalf("Stats.Dropped = %d, want >= %d", st.Dropped, n-4)
	}
	if st.Subscribers != 2 {
		t.Fatalf("Stats.Subscribers = %d, want 2", st.Subscribers)
	}
	b.Close()
	<-done
}

// TestBusReplayGapless is the Last-Event-ID contract: replay plus the
// live channel reconstruct the stream exactly, no gaps, no duplicates,
// as long as the resume point is inside the retention window.
func TestBusReplayGapless(t *testing.T) {
	b := NewBus(64, 64)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: TypeCellStarted})
	}
	sub, replay, gap := b.SubscribeFrom(4)
	if gap {
		t.Fatal("gap reported inside the retention window")
	}
	for i := 0; i < 3; i++ {
		b.Publish(Event{Type: TypeCellFinished})
	}
	got := append(replay, drain(sub)...)
	if len(got) != 9 {
		t.Fatalf("got %d events after resume, want 9 (5..13)", len(got))
	}
	for i, ev := range got {
		if want := uint64(5 + i); ev.ID != want {
			t.Fatalf("resumed event %d: ID %d, want %d", i, ev.ID, want)
		}
	}
	b.Unsubscribe(sub)
}

func TestBusReplayBeyondRetention(t *testing.T) {
	b := NewBus(4, 16)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: TypeCellStarted})
	}
	// Events 1..6 have been evicted; resuming after 2 must flag the gap
	// and replay what retention still holds (7..10).
	_, replay, gap := b.SubscribeFrom(2)
	if !gap {
		t.Fatal("no gap reported for a resume point older than retention")
	}
	if len(replay) != 4 || replay[0].ID != 7 || replay[3].ID != 10 {
		t.Fatalf("replay = %+v, want IDs 7..10", replay)
	}
	// Resuming at the head is not a gap: nothing was missed.
	_, replay, gap = b.SubscribeFrom(10)
	if gap || len(replay) != 0 {
		t.Fatalf("resume at head: gap=%v replay=%d, want no gap, empty replay", gap, len(replay))
	}
	// A live-only subscription never reports a gap.
	_, replay, gap = b.SubscribeFrom(^uint64(0))
	if gap || len(replay) != 0 {
		t.Fatalf("live-only: gap=%v replay=%d, want no gap, empty replay", gap, len(replay))
	}
}

// TestBusRetentionWraps publishes three times the retention, and after
// every publish resumes from every ID: the replay is the retained tail
// in ID order, and the gap flag is set exactly when the resume point is
// older than the oldest retained event.
func TestBusRetentionWraps(t *testing.T) {
	const retain = 5
	b := NewBus(retain, 1)
	for n := uint64(1); n <= 3*retain; n++ {
		b.Publish(Event{Type: TypeCellStarted})
		oldest := uint64(1)
		if n > retain {
			oldest = n - retain + 1
		}
		if got := b.Stats().Retained; got != int(n-oldest+1) {
			t.Fatalf("after %d publishes: %d retained, want %d", n, got, n-oldest+1)
		}
		for after := uint64(0); after <= n; after++ {
			sub, replay, gap := b.SubscribeFrom(after)
			b.Unsubscribe(sub)
			first := max(after+1, oldest)
			if uint64(len(replay)) != n-first+1 {
				t.Fatalf("after %d publishes, resume from %d: %d replayed, want %d", n, after, len(replay), n-first+1)
			}
			for i, ev := range replay {
				if ev.ID != first+uint64(i) {
					t.Fatalf("after %d publishes, resume from %d: replay[%d].ID = %d, want %d", n, after, i, ev.ID, first+uint64(i))
				}
			}
			if want := after+1 < oldest; gap != want {
				t.Fatalf("after %d publishes, resume from %d: gap = %v, want %v", n, after, gap, want)
			}
		}
	}
}

func TestBusCloseSemantics(t *testing.T) {
	b := NewBus(16, 16)
	sub := b.Subscribe()
	b.Publish(Event{Type: TypeCellStarted})
	b.Close()
	b.Close() // idempotent
	// The buffered event is still readable, then end-of-stream.
	if ev, ok := <-sub.C(); !ok || ev.ID != 1 {
		t.Fatalf("buffered event after close: ok=%v ev=%+v", ok, ev)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel still open after Close")
	}
	b.Publish(Event{Type: TypeCellStarted}) // no-op, must not panic
	if b.LastID() != 1 {
		t.Fatalf("publish after close advanced LastID to %d", b.LastID())
	}
	b.Unsubscribe(sub) // idempotent after close
	// Subscribing to a closed bus replays the tail and then ends.
	late, replay, _ := b.SubscribeFrom(0)
	if len(replay) != 1 {
		t.Fatalf("closed-bus replay = %d events, want 1", len(replay))
	}
	if _, ok := <-late.C(); ok {
		t.Fatal("closed-bus subscription delivered a live event")
	}
}

// TestBusConcurrent exercises the bus from racing publishers,
// subscribers and closers; correctness is "no panic, no deadlock, IDs
// unique" under -race.
func TestBusConcurrent(t *testing.T) {
	b := NewBus(128, 8)
	var pubs, subs sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 200; i++ {
				b.Publish(Event{Type: TypeCellStarted})
			}
		}()
	}
	for s := 0; s < 4; s++ {
		subs.Add(1)
		sub, replay, _ := b.SubscribeFrom(0)
		ids := make(map[uint64]bool)
		for _, ev := range replay {
			ids[ev.ID] = true
		}
		go func() {
			defer subs.Done()
			for ev := range sub.C() {
				if ids[ev.ID] {
					t.Errorf("duplicate event ID %d", ev.ID)
					return
				}
				ids[ev.ID] = true
			}
		}()
	}
	pubs.Wait()
	b.Close()
	subs.Wait()
	if got := b.Stats().Published; got != 800 {
		t.Fatalf("published %d, want 800", got)
	}
}
