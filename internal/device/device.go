// Package device models wake-generating peripherals. The paper's
// Observation 1 rests on them: modern SoCs aggregate interrupts and buffer
// peripheral data (network, audio, camera) so the platform can afford
// millisecond-scale DRIPS exit latencies — each device's buffer headroom is
// what it reports through LTR, and a buffer high-water mark is what fires
// an external wake through the chipset.
//
// Peripheral-event contract: a device model schedules its own traffic with
// sim.Scheduler.AfterPeripheral, and every such callback touches only the
// device's own state, the LTR table and GPIO, plus the host's public
// Active/Wake surface. It never touches DRAM, the MEE or a context image,
// and the events it schedules itself are peripheral too (a Wake may start
// the platform's exit flow, but that is the platform's own work). The
// platform's fast-forward engine keeps replaying MEE save/restore
// operations while only peripheral events are queued (DESIGN.md §12); a
// callback that broke the contract could observe DRAM bytes the replay
// left stale.
package device

import (
	"fmt"
	"math/rand"

	"odrips/internal/ltr"
	"odrips/internal/sim"
)

// Platform is the slice of the platform a device interacts with.
type Platform interface {
	// Active reports whether the platform is in C0 (devices drain their
	// buffers only while the host is awake).
	Active() bool
	// Wake injects an external wake through the chipset's AON domain.
	Wake()
}

// NIC is a network interface with an RX buffer. Packets arrive with
// exponential inter-arrival times; while the platform sleeps they
// accumulate in the buffer, and the device wakes the host only when the
// buffer passes its high-water mark — interrupt coalescing. Its LTR report
// is the time-to-overflow of the remaining headroom.
type NIC struct {
	sched *sim.Scheduler
	table *ltr.Table
	host  Platform

	name        string
	rateBps     float64 // average ingress in bytes/second
	packetBytes int
	bufferBytes int
	highWater   int

	buffered int
	rng      *rand.Rand
	stopped  bool
	draining bool

	packets   uint64
	wakes     uint64
	overflows uint64 // packets dropped because the host slept too long
}

// NICConfig describes a NIC model.
type NICConfig struct {
	Name        string
	RateKBps    float64 // average ingress rate
	PacketBytes int
	BufferBytes int
	// HighWaterFraction of the buffer at which the NIC wakes the host
	// (defaults to 0.75).
	HighWaterFraction float64
	Seed              int64
}

// NewNIC creates a NIC and registers its initial LTR report.
func NewNIC(sched *sim.Scheduler, table *ltr.Table, host Platform, cfg NICConfig) (*NIC, error) {
	if cfg.RateKBps <= 0 || cfg.PacketBytes <= 0 || cfg.BufferBytes < cfg.PacketBytes {
		return nil, fmt.Errorf("device: invalid NIC config %+v", cfg)
	}
	if cfg.HighWaterFraction <= 0 || cfg.HighWaterFraction > 1 {
		cfg.HighWaterFraction = 0.75
	}
	if cfg.Name == "" {
		cfg.Name = "nic"
	}
	n := &NIC{
		sched:       sched,
		table:       table,
		host:        host,
		name:        cfg.Name,
		rateBps:     cfg.RateKBps * 1000,
		packetBytes: cfg.PacketBytes,
		bufferBytes: cfg.BufferBytes,
		highWater:   int(float64(cfg.BufferBytes) * cfg.HighWaterFraction),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
	n.reportLTR()
	return n, nil
}

// Start begins packet arrivals.
func (n *NIC) Start() { n.scheduleNext() }

// Stop ends the traffic process (the pending arrival still fires but is
// discarded).
func (n *NIC) Stop() {
	n.stopped = true
	n.table.Remove(n.name)
}

// Stats returns packets seen, wakes raised, and overflow drops.
func (n *NIC) Stats() (packets, wakes, overflows uint64) {
	return n.packets, n.wakes, n.overflows
}

// Buffered returns the current buffer occupancy in bytes.
func (n *NIC) Buffered() int { return n.buffered }

func (n *NIC) scheduleNext() {
	// Exponential inter-arrival for the configured average byte rate.
	mean := float64(n.packetBytes) / n.rateBps
	gap := n.rng.ExpFloat64() * mean
	if gap < 1e-9 {
		gap = 1e-9
	}
	n.sched.AfterPeripheral(sim.FromSeconds(gap), "device."+n.name+".rx", n.arrival)
}

func (n *NIC) arrival() {
	if n.stopped {
		return
	}
	n.packets++
	if n.host.Active() {
		// Host awake: the packet is consumed immediately; the buffer
		// drains too (DMA while in C0).
		n.buffered = 0
	} else {
		n.buffered += n.packetBytes
		if n.buffered > n.bufferBytes {
			n.buffered = n.bufferBytes
			n.overflows++
		}
		if n.buffered >= n.highWater {
			n.wakes++
			n.host.Wake()
			n.awaitDrain()
		}
	}
	n.reportLTR()
	n.scheduleNext()
}

// awaitDrain polls for the host to reach C0 after a wake, then DMAs the
// buffer out. Without this, a quiet active window (no arrivals) would
// leave the buffer at its high-water mark and the next idle period would
// overflow it.
func (n *NIC) awaitDrain() {
	if n.draining {
		return
	}
	n.draining = true
	var poll func()
	poll = func() {
		if n.stopped {
			n.draining = false
			return
		}
		if n.host.Active() {
			n.buffered = 0
			n.draining = false
			n.reportLTR()
			return
		}
		n.sched.AfterPeripheral(100*sim.Microsecond, "device."+n.name+".drain", poll)
	}
	n.sched.AfterPeripheral(100*sim.Microsecond, "device."+n.name+".drain", poll)
}

// reportLTR publishes the time-to-overflow of the remaining headroom: how
// much wake latency the NIC can absorb before losing data (§2.2).
func (n *NIC) reportLTR() {
	headroom := n.bufferBytes - n.buffered
	if headroom < 0 {
		headroom = 0
	}
	tolerance := sim.FromSeconds(float64(headroom) / n.rateBps)
	n.table.Update(n.name, tolerance)
}

// AudioStream is a periodic isochronous consumer: it drains a fixed-size
// buffer at a constant rate and reports the buffer depth as its tolerance.
// Unlike the NIC it never *generates* wakes — it constrains how deep the
// platform may sleep (a too-small audio buffer pins the platform out of
// DRIPS entirely, the LTR gating path).
type AudioStream struct {
	table *ltr.Table
	name  string
}

// NewAudioStream registers a stream with the given buffer depth in play
// time; the tolerance is static while the stream runs.
func NewAudioStream(table *ltr.Table, name string, bufferDepth sim.Duration) *AudioStream {
	if name == "" {
		name = "audio"
	}
	table.Update(name, bufferDepth)
	return &AudioStream{table: table, name: name}
}

// Stop deregisters the stream (playback ended).
func (a *AudioStream) Stop() { a.table.Remove(a.name) }
