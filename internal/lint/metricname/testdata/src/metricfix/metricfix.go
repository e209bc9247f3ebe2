// Package metricfix exercises the metricname analyzer against the real
// obsv.Registry API.
package metricfix

import "ppscan/internal/obsv"

const shadow = "shadow.metric"

func record(reg *obsv.Registry, endpoint, round string) {
	reg.Counter("raw.literal").Inc() // want `metric name passed to Registry.Counter is not a constant`
	_ = reg.Gauge("raw.gauge")       // want `metric name passed to Registry.Gauge is not a constant`
	_ = reg.Histogram("raw.hist")    // want `metric name passed to Registry.Histogram is not a constant`
	_ = reg.Counter(shadow)          // want `metric name passed to Registry.Counter is not a constant`

	reg.Counter(obsv.MetricCacheHits).Inc()
	_ = reg.Histogram(obsv.MetricServerComputeNs)
	_ = reg.Gauge(obsv.MetricCacheSize)

	// Prefix-constant plus dynamic suffix is the sanctioned pattern for
	// per-endpoint and per-round metric families.
	_ = reg.Counter(obsv.MetricHTTPRequestsPrefix + endpoint)
	_ = reg.Counter(obsv.MetricShardRoundNsPrefix + round)

	// Non-constant names that flow in from elsewhere are the range-var
	// pattern (iterating over a slice of canonical constants).
	for _, name := range preRegistered {
		_ = reg.Counter(name)
	}

	//lint:metricname experiment-local key, written and read by the same script
	_ = reg.Counter("exp.custom")
}

var preRegistered = []string{obsv.MetricCacheHits, obsv.MetricCacheMisses}
