package main

import "runtime/metrics"

// gcMeter measures the share of the process's CPU time spent in the
// garbage collector since it was created.
type gcMeter struct{ gc0, total0 float64 }

var gcSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: gcSamples[0]}, {Name: gcSamples[1]}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func newGCMeter() *gcMeter {
	gc, total := readCPU()
	return &gcMeter{gc, total}
}

func (m *gcMeter) frac() float64 {
	gc, total := readCPU()
	return ratio(gc-m.gc0, total-m.total0)
}
