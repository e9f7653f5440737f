package sim

import (
	"testing"
)

// The tail-latency benchmarks run E11's read arm (one slow replica, 60
// AnyReplica batch reads) hedged and unhedged and report the measured
// p99 and the reads the slow copy won as custom metrics.

func benchReadTail(b *testing.B, hedged bool) {
	for i := 0; i < b.N; i++ {
		p99, slow, err := runE11ReadArm(e11ParamsFor(ScaleSmall), hedged)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(p99), "p99-ms")
		b.ReportMetric(float64(slow), "slow-reads")
	}
}

func BenchmarkReadTailLatencyUnhedged(b *testing.B) { benchReadTail(b, false) }

func BenchmarkReadTailLatencyHedged(b *testing.B) { benchReadTail(b, true) }
