// Package determinism exercises the determinism checker: wall-clock
// reads, PRNG imports and order-dependent map iteration in packages
// whose outputs are golden-tested.
package determinism

import (
	"time"

	"metrics"
)

func work() {}

// timed reads the clock but the value provably flows only into a
// metrics instrument — the sanctioned observation-only pattern.
func timed(sink *metrics.Registry) {
	t0 := time.Now()
	work()
	sink.Histogram("latency").Observe(time.Since(t0).Nanoseconds())
}

// stamp lets the clock reach a return value: output now depends on
// timing.
func stamp() string {
	t := time.Now() // want `wall-clock read \(time.Now\) escapes the metrics sink`
	return t.String()
}

// stampNano consumes the clock inline on a non-metrics path.
func stampNano() int64 {
	return time.Now().UnixNano() // want `wall-clock read \(time.Now\) escapes the metrics sink`
}

// sinceEpoch calls Since with a non-variable argument, so it is judged
// at the Since site itself.
func sinceEpoch() time.Duration {
	return time.Since(time.Unix(0, 0)) // want `wall-clock read \(time.Since\) escapes the metrics sink`
}

// allowedStamp documents its exception: the directive suppresses the
// diagnostic and names the reason.
func allowedStamp() int64 {
	//dvf:allow determinism run manifests carry a human-facing timestamp that is never golden-compared
	return time.Now().UnixNano()
}

// allowedReadSteers allows its read as cost telemetry, then lets the
// duration pick the result: the allow covers the read, not the branch.
func allowedReadSteers(exact, quick int64) int64 {
	//dvf:allow determinism the duration is reported as cost, never golden
	t0 := time.Now()
	work()
	elapsed := time.Since(t0).Nanoseconds()
	if elapsed > 2*int64(time.Second) { // want `wall-clock-derived value decides a branch`
		return quick
	}
	return exact
}
