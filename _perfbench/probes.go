package main

import (
	"time"

	"odrips/internal/dram"
	"odrips/internal/mee"
	"odrips/internal/sim"
)

// probeEvents is the fixed event count of the scheduler probe: a
// self-rescheduling chain plus a standing set of 64 pending timers, so
// every dispatch pays a real heap operation.
const probeEvents = 1 << 20

// simProbe times probeEvents dispatches through sim.Scheduler and
// returns host nanoseconds per event.
func simProbe() float64 {
	s := sim.NewScheduler()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < probeEvents {
			s.After(sim.Duration(1+fired%64), "probe", tick)
		}
	}
	for i := 0; i < 64; i++ {
		s.After(sim.Duration(1+i), "probe", tick)
	}
	t0 := time.Now()
	s.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(s.Fired())
}

// meeProbeBytes is the context image of the paper's §6.3 (~200 KB).
const meeProbeBytes = 200 << 10

// meeProbe times one WriteRegion and one ReadRegion of the context image
// on a fresh engine, returning host microseconds for each.
func meeProbe() (saveUs, restoreUs float64, err error) {
	mem := dram.New(dram.Skylake8GB())
	var key [32]byte
	copy(key[:], "perfbench mee probe key")
	e, err := mee.New(mem, 0x1000_0000, meeProbeBytes/mee.BlockSize, key, mee.DefaultCacheLines)
	if err != nil {
		return 0, 0, err
	}
	img := make([]byte, meeProbeBytes)
	for i := range img {
		img[i] = byte(i * 131)
	}
	t0 := time.Now()
	if err := e.WriteRegion(img); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if _, err := e.ReadRegion(meeProbeBytes); err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	return float64(t1.Sub(t0).Nanoseconds()) / 1e3, float64(t2.Sub(t1).Nanoseconds()) / 1e3, nil
}

// probes runs the sim and mee probes (traced runs only): five rounds
// each, reporting the medians.
func probes(r *result) {
	var ns, save, restore []float64
	for i := 0; i < 5; i++ {
		ns = append(ns, simProbe())
		s, rs, err := meeProbe()
		r.ledger.op(errorf(err, "mee probe"))
		save, restore = append(save, s), append(restore, rs)
	}
	r.layer("sim.ns_per_event", "ns", median(ns))
	r.layer("mee.save_us", "us", median(save))
	r.layer("mee.restore_us", "us", median(restore))
}
