package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Transport aggregates data-plane observability for the distributed mode:
// per-worker heartbeat age, dispatch→completion RTT, shuffle bytes moved
// over the wire, and connection failure counters. It is safe for concurrent
// use — the master's fetch server records served bytes off the control
// loop while everything else arrives on it.
//
// Cluster totals are sums over the per-worker entries, taken at read time.
// Entries are never deleted, worker IDs are never reused and a worker is
// declared dead at most once, so the sums are exact.
type Transport struct {
	// ServedWire counts shuffle payload bytes the master's own fetch server
	// handed to workers, as they crossed the network; ServedRaw is the
	// uncompressed encoded size of the same blobs.
	ServedWire, ServedRaw atomic.Int64

	mu      sync.Mutex
	workers map[int]*WorkerTransport
	rttEWMA float64 // cluster-wide dispatch→completion round trip, seconds
}

// WorkerTransport is one worker's transport counters.
type WorkerTransport struct {
	LastHeartbeat time.Time
	Heartbeats    int
	Dispatches    int
	Completions   int
	// RTTEWMA is the exponentially weighted dispatch→completion round trip
	// in seconds (α = 0.2).
	RTTEWMA float64
	// WireBytes counts shuffle payload bytes this worker reported fetching
	// over the wire — what actually crossed the network. RawBytes is the
	// uncompressed encoded size of the same payloads; the two differ only
	// when compression is negotiated, and the gap is the saving.
	WireBytes float64
	RawBytes  float64
	// FetchRetries counts shuffle fetch attempts beyond the first this
	// worker reported (transient faults absorbed by retry/backoff), and
	// FetchFallbacks counts partition fetches that degraded to the master's
	// canonical store after peer retries were exhausted.
	FetchRetries   int
	FetchFallbacks int
	// Failed marks the worker as declared dead.
	Failed bool
}

// NewTransport returns an empty transport monitor.
func NewTransport() *Transport {
	return &Transport{workers: make(map[int]*WorkerTransport)}
}

func (t *Transport) worker(id int) *WorkerTransport {
	w := t.workers[id]
	if w == nil {
		w = &WorkerTransport{}
		t.workers[id] = w
	}
	return w
}

// ObserveRegister records a worker joining (or rejoining) the cluster.
func (t *Transport) ObserveRegister(id int, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.worker(id).LastHeartbeat = now
}

// ObserveHeartbeat records a liveness beacon from a worker.
func (t *Transport) ObserveHeartbeat(id int, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.worker(id)
	w.Heartbeats++
	w.LastHeartbeat = now
}

// ObserveDispatch records a monotask dispatch to a worker.
func (t *Transport) ObserveDispatch(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.worker(id).Dispatches++
}

// ObserveCompletion records a completion: rtt is the dispatch→completion
// round trip in seconds, wireBytes the shuffle payload bytes the worker
// pulled over the wire to feed the monotask, rawBytes their uncompressed
// encoded size. Wire is what the network carried (and what rate feedback
// should see); raw is what the job logically moved.
func (t *Transport) ObserveCompletion(id int, rtt, wireBytes, rawBytes float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.worker(id)
	w.Completions++
	w.WireBytes += wireBytes
	w.RawBytes += rawBytes
	w.RTTEWMA = ewma(w.RTTEWMA, rtt)
	t.rttEWMA = ewma(t.rttEWMA, rtt)
}

// ewma folds sample x into the α = 0.2 moving average avg (0: no samples).
func ewma(avg, x float64) float64 {
	const alpha = 0.2
	if avg == 0 {
		return x
	}
	return alpha*x + (1-alpha)*avg
}

// ObserveFetchDegradation folds a completion's reported fetch degradation
// into the counters: retries are transient faults the retry/backoff budget
// absorbed; fallbacks are partitions that degraded to the master's canonical
// store after peer retries were exhausted.
func (t *Transport) ObserveFetchDegradation(id, retries, fallbacks int) {
	if retries == 0 && fallbacks == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.worker(id)
	w.FetchRetries += retries
	w.FetchFallbacks += fallbacks
}

// ObserveFailure records a worker declared dead (heartbeat timeout or
// connection error).
func (t *Transport) ObserveFailure(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.worker(id).Failed = true
}

// HeartbeatAges returns the age of each live worker's last heartbeat. A
// worker whose counters exist but whose LastHeartbeat was never stamped (a
// dispatch/completion observation racing registration) reports age 0: an age
// measured from the zero time would be ~the Unix epoch, instantly exceeding
// any miss budget and failing a healthy, just-registered worker.
func (t *Transport) HeartbeatAges(now time.Time) map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]time.Duration, len(t.workers))
	for id, w := range t.workers {
		if w.Failed {
			continue
		}
		if w.LastHeartbeat.IsZero() {
			out[id] = 0
			continue
		}
		out[id] = now.Sub(w.LastHeartbeat)
	}
	return out
}

// Worker returns a copy of one worker's counters (zero value if unknown).
func (t *Transport) Worker(id int) WorkerTransport {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w := t.workers[id]; w != nil {
		return *w
	}
	return WorkerTransport{}
}

// totals sums every worker's counters; failures counts the dead ones.
func (t *Transport) totals() (sum WorkerTransport, failures int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalsLocked()
}

func (t *Transport) totalsLocked() (sum WorkerTransport, failures int) {
	for _, w := range t.workers {
		sum.Dispatches += w.Dispatches
		sum.Completions += w.Completions
		sum.WireBytes += w.WireBytes
		sum.RawBytes += w.RawBytes
		sum.FetchRetries += w.FetchRetries
		sum.FetchFallbacks += w.FetchFallbacks
		if w.Failed {
			failures++
		}
	}
	return sum, failures
}

// WireBytes returns the total shuffle payload bytes workers reported
// fetching over the wire.
func (t *Transport) WireBytes() float64 {
	s, _ := t.totals()
	return s.WireBytes
}

// RawBytes returns the uncompressed encoded size of the payloads behind
// WireBytes — equal to it unless compression is negotiated.
func (t *Transport) RawBytes() float64 {
	s, _ := t.totals()
	return s.RawBytes
}

// FetchRetries returns the total reported shuffle fetch retries.
func (t *Transport) FetchRetries() int {
	s, _ := t.totals()
	return s.FetchRetries
}

// FetchFallbacks returns the total reported master-store fetch fallbacks.
func (t *Transport) FetchFallbacks() int {
	s, _ := t.totals()
	return s.FetchFallbacks
}

// Failures returns the worker-failure count.
func (t *Transport) Failures() int {
	_, n := t.totals()
	return n
}

// ServedBytes returns the master fetch server's (wire, raw) served totals.
func (t *Transport) ServedBytes() (wire, raw float64) {
	return float64(t.ServedWire.Load()), float64(t.ServedRaw.Load())
}

// StatsLine renders a one-line transport summary for periodic master logs.
func (t *Transport) StatsLine(now time.Time) string {
	served, _ := t.ServedBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	sum, failures := t.totalsLocked()
	ids := make([]int, 0, len(t.workers))
	for id := range t.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var hb strings.Builder
	for i, id := range ids {
		w := t.workers[id]
		if i > 0 {
			hb.WriteByte(' ')
		}
		switch {
		case w.Failed:
			fmt.Fprintf(&hb, "w%d=dead", id)
		case w.LastHeartbeat.IsZero():
			fmt.Fprintf(&hb, "w%d=new", id)
		default:
			fmt.Fprintf(&hb, "w%d=%.1fs", id, now.Sub(w.LastHeartbeat).Seconds())
		}
	}
	return fmt.Sprintf(
		"transport: workers=%d/%d hb_age[%s] rtt=%.1fms wire=%.2fMB raw=%.2fMB served=%.2fMB disp=%d comp=%d fail=%d retry=%d fallback=%d",
		len(t.workers)-failures, len(t.workers), hb.String(), t.rttEWMA*1e3,
		sum.WireBytes/1e6, sum.RawBytes/1e6, served/1e6, sum.Dispatches, sum.Completions, failures,
		sum.FetchRetries, sum.FetchFallbacks)
}
