package eventloop

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestSimDriverIsPlainLoop: SimDriver must be a zero-cost veneer — same loop,
// same Post semantics, same Run drain.
func TestSimDriverIsPlainLoop(t *testing.T) {
	d := NewSimDriver(nil)
	var order []int
	d.Loop().After(2*Millisecond, func() { order = append(order, 2) })
	d.Loop().After(1*Millisecond, func() {
		order = append(order, 1)
		d.Send(func() { order = append(order, 10) }) // Post at current instant
	})
	d.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 10 || order[2] != 2 {
		t.Fatalf("order = %v, want [1 10 2]", order)
	}
	if d.Loop().Now() != Time(2*Millisecond) {
		t.Fatalf("Now = %v, want 2ms", d.Loop().Now())
	}
}

// TestLiveDriverTimersFireInOrderAgainstWall: timers fire in timestamp order
// and the wall clock really paces them.
func TestLiveDriverTimersFireInOrderAgainstWall(t *testing.T) {
	d := NewLiveDriver()
	var order []int
	d.Loop().After(20*Millisecond, func() {
		order = append(order, 2)
		d.Stop()
	})
	d.Loop().After(5*Millisecond, func() { order = append(order, 1) })
	start := time.Now()
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("Run returned after %v, want >= 20ms (wall pacing)", elapsed)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	if d.Loop().Now() < Time(20*Millisecond) {
		t.Errorf("virtual Now = %v, want >= 20ms", d.Loop().Now())
	}
}

// TestLiveDriverPreRunSendBeforeTimers: an event sent before Run starts runs
// ahead of a timer due at time zero, so setup queued through the inbox (an
// agent's hardware profile) lands before work that timer would start.
func TestLiveDriverPreRunSendBeforeTimers(t *testing.T) {
	d := NewLiveDriver()
	var order []string
	d.Loop().At(0, func() {
		order = append(order, "timer")
		d.Stop()
	})
	d.Send(func() { order = append(order, "send") })
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "send" || order[1] != "timer" {
		t.Fatalf("order = %v, want [send timer]", order)
	}
}

// TestLiveDriverSendFromManyGoroutines: the inbox is the thread-safety
// boundary — concurrent Sends all execute, single-threaded, on the loop.
func TestLiveDriverSendFromManyGoroutines(t *testing.T) {
	d := NewLiveDriver()
	const senders, each = 8, 50
	count := 0 // loop-confined; no lock needed if single-threading holds
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				d.Send(func() {
					count++
					if count == senders*each {
						d.Stop()
					}
				})
			}
		}()
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if count != senders*each {
		t.Fatalf("count = %d, want %d", count, senders*each)
	}
}

// TestLiveDriverSendAdvancesClock: an external event observes a loop clock
// already advanced to its arrival instant.
func TestLiveDriverSendAdvancesClock(t *testing.T) {
	d := NewLiveDriver()
	var at Time
	go func() {
		time.Sleep(10 * time.Millisecond)
		d.Send(func() {
			at = d.Loop().Now()
			d.Stop()
		})
	}()
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if at < Time(8*Millisecond) {
		t.Errorf("event saw Now = %v, want >= ~10ms", at)
	}
}

// TestLiveDriverContextCancel: cancellation stops the loop and surfaces the
// context error.
func TestLiveDriverContextCancel(t *testing.T) {
	d := NewLiveDriver()
	d.Loop().Every(Millisecond, func() {})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := d.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestLiveDriverLateSendDiscarded: a straggler goroutine finishing after
// shutdown must not block or grow state.
func TestLiveDriverLateSendDiscarded(t *testing.T) {
	d := NewLiveDriver()
	d.Loop().After(Millisecond, d.Stop)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fired := false
	d.Send(func() { fired = true }) // must not block
	if fired {
		t.Fatal("late Send executed after Run returned")
	}
}

// TestLiveDriverStopFromOtherGoroutine: Stop is safe off-loop and idempotent.
func TestLiveDriverStopFromOtherGoroutine(t *testing.T) {
	d := NewLiveDriver()
	d.Loop().Every(Millisecond, func() {})
	go func() {
		time.Sleep(5 * time.Millisecond)
		d.Stop()
		d.Stop()
	}()
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
}
