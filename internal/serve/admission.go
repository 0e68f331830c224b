package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Admission control: every connection (binary) or protocol front (HTTP,
// whose connections are multiplexed by net/http) gets a token bucket
// plus an in-flight cap. The bucket bounds sustained request rate, the
// cap bounds concurrent HTTP requests (a binary connection answers one
// frame at a time, so its cap never trips); a request that fails either
// check is rejected immediately with CodeOverloaded (HTTP 429 / an
// overload frame) so the client sheds load instead of queuing into a
// latency collapse.
// Overload is classified transient in the resilience taxonomy
// (ErrOverloaded wraps resilience.ErrTransient): back off and retry.

// AdmissionConfig bounds one connection. The zero value disables both
// checks (admit everything) — admission is opt-in per server.
type AdmissionConfig struct {
	// Rate is the sustained admission rate in requests/second. Zero or
	// negative disables the token bucket.
	Rate float64
	// Burst is the bucket capacity (instantaneous burst size). Defaults
	// to Rate (one second of burst) when zero and the bucket is enabled.
	Burst int
	// MaxInflight caps requests admitted but not yet answered. Zero or
	// negative disables the cap. It bounds the HTTP front only: a binary
	// connection answers one frame at a time, so its cap never trips
	// there and only Rate applies.
	MaxInflight int
}

// enabled reports whether any check is configured.
func (c AdmissionConfig) enabled() bool { return c.Rate > 0 || c.MaxInflight > 0 }

// admitter enforces AdmissionConfig for one connection. Methods are
// safe for concurrent use (the HTTP front shares one admitter across
// handler goroutines).
type admitter struct {
	cfg AdmissionConfig
	now func() time.Time

	mu     sync.Mutex
	tokens float64
	last   time.Time

	inflight atomic.Int64
}

// newAdmitter builds an admitter; now is injectable for deterministic
// tests and defaults to time.Now.
func newAdmitter(cfg AdmissionConfig, now func() time.Time) *admitter {
	if now == nil {
		now = time.Now
	}
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(cfg.Rate)
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	a := &admitter{cfg: cfg, now: now}
	a.tokens = float64(cfg.Burst)
	a.last = now()
	return a
}

// admit consumes one token and one in-flight slot, reporting whether
// the request may proceed. An admitted request MUST be released.
func (a *admitter) admit() bool {
	if a == nil {
		return true
	}
	if a.cfg.MaxInflight > 0 {
		if a.inflight.Add(1) > int64(a.cfg.MaxInflight) {
			a.inflight.Add(-1)
			return false
		}
	}
	if a.cfg.Rate > 0 && !a.takeToken() {
		if a.cfg.MaxInflight > 0 {
			a.inflight.Add(-1)
		}
		return false
	}
	return true
}

// release returns the in-flight slot of an admitted request.
func (a *admitter) release() {
	if a != nil && a.cfg.MaxInflight > 0 {
		a.inflight.Add(-1)
	}
}

func (a *admitter) takeToken() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	if dt := now.Sub(a.last).Seconds(); dt > 0 {
		a.tokens += dt * a.cfg.Rate
		if ceil := float64(a.cfg.Burst); a.tokens > ceil {
			a.tokens = ceil
		}
		a.last = now
	}
	if a.tokens < 1 {
		return false
	}
	a.tokens--
	return true
}
