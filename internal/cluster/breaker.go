package cluster

import (
	"sync"
	"time"

	"cellspot/internal/obs"
)

// breaker is a per-replica circuit breaker on the gateway's request path.
// It complements the health loop: probes run on a timer, but a replica that
// accepts TCP and then fails or crawls burns a request's whole retry budget
// between probes. The breaker reacts at request speed.
//
//	closed    — traffic flows; BreakerThreshold consecutive failures trip it
//	open      — traffic refused until BreakerCooldown elapses
//	half-open — exactly one probe request is let through; success closes
//	            the breaker, failure re-opens it for another cooldown
//
// Ranking uses the read-only allow(); the mutating acquire() runs only when
// a request is actually issued, so the half-open probe slot is never leaked
// by a replica that was ranked but not contacted. Abandoned attempts
// (caller context cancelled) call abandon() — no verdict, probe slot freed.
type breaker struct {
	threshold int64
	cooldown  time.Duration

	mu       sync.Mutex
	state    int // 0 closed, 1 half-open, 2 open
	fails    int64
	openedAt time.Time
	probing  bool

	mState *obs.Gauge // cluster_breaker_state: 0/1/2 as above
}

const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

func newBreaker(threshold int64, cooldown time.Duration, mState *obs.Gauge) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, mState: mState}
}

// allow reports whether ranking should consider this replica. Read-only:
// it never claims the half-open probe slot.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerOpen || now.Sub(b.openedAt) >= b.cooldown
}

// acquire claims the right to issue one request. An open breaker past its
// cooldown transitions to half-open and grants the single probe slot.
func (b *breaker) acquire(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record folds one completed attempt's outcome in.
func (b *breaker) record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.fails = 0
		b.setState(breakerClosed)
		return
	}
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: another full cooldown.
		b.openedAt = now
		b.setState(breakerOpen)
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.openedAt = now
			b.fails = 0
			b.setState(breakerOpen)
		}
	}
	// Already open: a forced last-resort attempt failed; the original
	// cooldown keeps counting so recovery is not pushed out by traffic.
}

// abandon releases the probe slot without a verdict — the attempt was
// cancelled (caller gone, hedge winner elsewhere), which says nothing about
// the replica.
func (b *breaker) abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// setState transitions and mirrors into the gauge. Callers hold b.mu.
func (b *breaker) setState(s int) {
	if b.state == s {
		return
	}
	b.state = s
	b.mState.Set(int64(s))
}

// stateName snapshots the state for the health response.
func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	default:
		return "closed"
	}
}
