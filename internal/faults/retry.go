package faults

import "math"

// RetryPolicy bounds an engine's retry-with-exponential-backoff loop. The
// clock is virtual (simulated milliseconds, never slept), so budgets are
// deterministic and tests run instantly.
type RetryPolicy struct {
	// MaxAttempts is the total number of probe attempts allowed, first
	// attempt included.
	MaxAttempts int
	// BaseBackoffMs is the backoff before the first retry; each further
	// retry doubles it, capped at MaxBackoffMs.
	BaseBackoffMs float64
	MaxBackoffMs  float64
	// BudgetMs caps the cumulative backoff spent by one Backoff instance
	// (one engine on one substrate); past it, retries stop even if
	// MaxAttempts remain. Zero means no budget.
	BudgetMs float64
}

// DefaultRetryPolicy is the bounded budget every engine runs under an
// active fault layer: up to 3 attempts, 50 ms → 800 ms exponential
// backoff, 30 s total per substrate.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoffMs: 50, MaxBackoffMs: 800, BudgetMs: 30000}
}

// Backoff meters retries for one engine on one substrate. Engines run one
// loop, `if ok || !b.Allow(attempt+1) { break }`; a nil *Backoff never
// allows a retry.
type Backoff struct {
	pol       RetryPolicy
	inj       *Injector
	substrate string
	spentMs   float64
}

// NewBackoff builds the retry meter for one engine on substrate. Under a
// fault layer it runs DefaultRetryPolicy. Without one (nil injector) it
// grants exactly `retries` immediate retries with no budget — the
// engine's zero-fault probe sequence, so the dataplane sees the same
// calls as a fixed-count loop.
func (inj *Injector) NewBackoff(substrate string, retries int) *Backoff {
	pol := RetryPolicy{MaxAttempts: retries + 1}
	if inj != nil {
		pol = DefaultRetryPolicy()
	}
	return &Backoff{pol: pol, inj: inj, substrate: substrate}
}

// Allow reports whether a retry may proceed after `attempt` attempts have
// already failed (so the first call passes attempt=1). It charges the
// exponential backoff to the virtual budget; once MaxAttempts or BudgetMs
// is exhausted it answers false. Nil receiver: always false.
func (b *Backoff) Allow(attempt int) bool {
	if b == nil {
		return false
	}
	if attempt >= b.pol.MaxAttempts {
		return false
	}
	d := b.pol.BaseBackoffMs * math.Pow(2, float64(attempt-1))
	if d > b.pol.MaxBackoffMs {
		d = b.pol.MaxBackoffMs
	}
	if b.pol.BudgetMs > 0 && b.spentMs+d > b.pol.BudgetMs {
		return false
	}
	b.spentMs += d
	b.inj.retry(b.substrate)
	return true
}

// SpentMs reports the virtual backoff milliseconds consumed so far.
func (b *Backoff) SpentMs() float64 {
	if b == nil {
		return 0
	}
	return b.spentMs
}
