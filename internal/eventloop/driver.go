// Driver abstraction: one scheduling core, two clocks.
//
// Every control-plane component in this repository (scheduler, workers, job
// managers) is written against *Loop — a single-threaded callback loop with
// an abstract clock. A Driver decides what that clock means:
//
//   - SimDriver leaves the loop in pure virtual time: Run drains the timer
//     heap as fast as the host can execute callbacks. This is the
//     deterministic discrete-event simulation mode used by every experiment
//     and the equivalence suites.
//   - LiveDriver binds the loop's clock to the wall: timers fire when their
//     timestamp is reached in real time, and completions produced by real
//     executor goroutines enter the loop through a thread-safe inbox
//     (Send). All callbacks still execute on the single driver goroutine,
//     so the control plane needs no locking in either mode — the same
//     property the simulator relies on, now preserved under real execution.
//
// The determinism boundary is exactly the inbox: a simulated run admits no
// external events, so it is bit-reproducible; a live run interleaves inbox
// arrivals by wall-clock order, so it is reproducible at the level of
// results, not event timestamps.
package eventloop

import (
	"context"
	"sync"
	"time"
)

// Driver owns a Loop and decides how its clock advances.
type Driver interface {
	// Loop returns the event loop the driver advances. All control-plane
	// state must only be touched from callbacks running on this loop.
	Loop() *Loop
	// Send schedules fn to run on the loop goroutine. For SimDriver it is
	// Post and must be called from loop callbacks; for LiveDriver it is
	// safe from any goroutine.
	Send(fn func())
	// Stop makes Run return after the currently executing callback.
	Stop()
}

// SimDriver is the trivial driver for the deterministic simulation: Run
// drains the loop in virtual time with no pacing and no external inputs.
type SimDriver struct {
	L *Loop
}

// NewSimDriver wraps an existing loop (or a fresh one when nil).
func NewSimDriver(l *Loop) *SimDriver {
	if l == nil {
		l = New()
	}
	return &SimDriver{L: l}
}

// Loop returns the wrapped loop.
func (d *SimDriver) Loop() *Loop { return d.L }

// Send posts fn at the current virtual instant. Simulation has no external
// event sources, so Send is only meaningful from loop callbacks.
func (d *SimDriver) Send(fn func()) { d.L.Post(fn) }

// Run drains the loop to quiescence in virtual time.
func (d *SimDriver) Run() { d.L.Run() }

// Stop stops the underlying loop.
func (d *SimDriver) Stop() { d.L.Stop() }

// LiveDriver paces a Loop against the wall clock. Virtual time is
// microseconds since Run started, so the same Duration constants and the
// same At/After/Every control-plane code work unchanged; a timer scheduled
// for virtual time T fires once the wall clock reaches T.
//
// External events (monotask completions measured by executor goroutines)
// enter through Send: the closure is queued thread-safely and executed on
// the driver goroutine with the loop clock first advanced to "now", so from
// the control plane's perspective a live completion is indistinguishable
// from a timer that fired at its arrival instant.
type LiveDriver struct {
	loop  *Loop
	start time.Time

	mu     sync.Mutex
	queue  []func()
	done   bool // Run returned; late Sends are discarded
	notify chan struct{}
	quitC  chan struct{}
	quit   sync.Once
}

// NewLiveDriver returns a live driver over a fresh loop positioned at
// virtual time zero.
func NewLiveDriver() *LiveDriver {
	return &LiveDriver{
		loop:   New(),
		notify: make(chan struct{}, 1),
		quitC:  make(chan struct{}),
	}
}

// Loop returns the driven loop. Use it to schedule control-plane callbacks
// (from the loop goroutine) before or during Run.
func (d *LiveDriver) Loop() *Loop { return d.loop }

// Now returns the loop's current virtual time (microseconds since Run
// started; zero before Run).
func (d *LiveDriver) Now() Time { return d.loop.Now() }

// Send queues fn for execution on the driver goroutine. Safe from any
// goroutine; never blocks. After Run has returned, sends are discarded —
// straggler executor goroutines finishing after shutdown must not deadlock.
func (d *LiveDriver) Send(fn func()) {
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	d.queue = append(d.queue, fn)
	d.mu.Unlock()
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// Stop makes Run return once the batch of due callbacks currently executing
// (if any) finishes. Safe from loop callbacks and from other goroutines; it
// deliberately does not touch the loop's own stop flag, which is not
// thread-safe — the driver goroutine checks the quit channel between
// callback batches instead.
func (d *LiveDriver) Stop() {
	d.quit.Do(func() { close(d.quitC) })
}

// wallNow maps the wall clock onto loop virtual time.
func (d *LiveDriver) wallNow() Time {
	return Time(time.Since(d.start) / time.Microsecond)
}

// drain takes the queued external events.
func (d *LiveDriver) drain() []func() {
	d.mu.Lock()
	q := d.queue
	d.queue = nil
	d.mu.Unlock()
	return q
}

// stopRequested reports whether Stop has been called.
func (d *LiveDriver) stopRequested() bool {
	select {
	case <-d.quitC:
		return true
	default:
		return false
	}
}

// Run executes the control loop against the wall clock until Stop is called
// or ctx is cancelled. It returns ctx.Err() on cancellation, nil otherwise.
// Run must be called at most once.
func (d *LiveDriver) Run(ctx context.Context) error {
	d.start = time.Now()
	defer func() {
		d.mu.Lock()
		d.done = true
		d.queue = nil
		d.mu.Unlock()
	}()
	wake := time.NewTimer(0)
	defer wake.Stop()
	if !wake.Stop() {
		<-wake.C
	}
	// Events sent before Run started (setup such as a registering agent's
	// hardware profile) run first, ahead of any timer: a timer due at start
	// would otherwise act on state the setup has not reached yet.
	for _, fn := range d.drain() {
		fn()
		if d.stopRequested() {
			return nil
		}
	}
	for {
		// 1. Run external events that have arrived, each at the current
		// wall instant.
		for _, fn := range d.drain() {
			d.loop.RunUntil(d.wallNow())
			fn()
			if d.stopRequested() {
				return nil
			}
		}
		// 2. Run all due timers and advance the clock to "now".
		d.loop.RunUntil(d.wallNow())
		if d.stopRequested() {
			return nil
		}
		// 3. Sleep until the next timer is due, an external event arrives,
		// or we are told to stop.
		var timerC <-chan time.Time
		if next, ok := d.loop.NextAt(); ok {
			delay := time.Duration(next-d.loop.Now()) * time.Microsecond
			if delay < 0 {
				delay = 0
			}
			wake.Reset(delay)
			timerC = wake.C
		}
		select {
		case <-timerC:
			continue
		case <-d.notify:
		case <-d.quitC:
		case <-ctx.Done():
			d.Stop()
			return ctx.Err()
		}
		if timerC != nil && !wake.Stop() {
			// Drain a concurrently fired timer so Reset starts clean.
			select {
			case <-wake.C:
			default:
			}
		}
		if d.stopRequested() {
			return nil
		}
	}
}
