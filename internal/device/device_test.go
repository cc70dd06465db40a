package device

import (
	"testing"

	"odrips/internal/ltr"
	"odrips/internal/sim"
)

// fakeHost is a controllable Platform.
type fakeHost struct {
	active bool
	wakes  int
}

func (h *fakeHost) Active() bool { return h.active }
func (h *fakeHost) Wake()        { h.wakes++ }

func bench(t *testing.T) (*sim.Scheduler, *ltr.Table, *fakeHost) {
	t.Helper()
	s := sim.NewScheduler()
	return s, ltr.NewTable(s), &fakeHost{}
}

func TestNICConfigValidation(t *testing.T) {
	s, tbl, h := bench(t)
	bad := []NICConfig{
		{RateKBps: 0, PacketBytes: 1500, BufferBytes: 64 << 10},
		{RateKBps: 100, PacketBytes: 0, BufferBytes: 64 << 10},
		{RateKBps: 100, PacketBytes: 1500, BufferBytes: 100},
	}
	for i, cfg := range bad {
		if _, err := NewNIC(s, tbl, h, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNICDrainsWhileHostActive(t *testing.T) {
	s, tbl, h := bench(t)
	h.active = true
	n, err := NewNIC(s, tbl, h, NICConfig{RateKBps: 1000, PacketBytes: 1500, BufferBytes: 64 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	s.RunFor(sim.Second)
	n.Stop()
	packets, wakes, overflows := n.Stats()
	if packets == 0 {
		t.Fatal("no packets arrived")
	}
	if wakes != 0 || overflows != 0 || n.Buffered() != 0 {
		t.Fatalf("active host: wakes=%d overflows=%d buffered=%d", wakes, overflows, n.Buffered())
	}
}

func TestNICBuffersAndWakesWhileHostSleeps(t *testing.T) {
	s, tbl, h := bench(t)
	h.active = false
	// 64 KiB buffer at 100 KB/s fills its 75% high-water in ~0.5 s.
	n, err := NewNIC(s, tbl, h, NICConfig{RateKBps: 100, PacketBytes: 1500, BufferBytes: 64 << 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	s.RunFor(400 * sim.Millisecond)
	if h.wakes != 0 {
		t.Fatalf("woke after 0.4s with a ~0.5s high-water: buffered=%d", n.Buffered())
	}
	s.RunFor(sim.Second)
	if h.wakes == 0 {
		t.Fatal("never woke the host")
	}
	n.Stop()
}

func TestNICLTRTracksHeadroom(t *testing.T) {
	s, tbl, h := bench(t)
	h.active = false
	n, err := NewNIC(s, tbl, h, NICConfig{RateKBps: 100, PacketBytes: 1500, BufferBytes: 64 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tol0, ok := tbl.MinTolerance()
	if !ok {
		t.Fatal("no LTR report at creation")
	}
	// Full buffer headroom at 100 KB/s: 65536/100000 s = ~655 ms.
	if tol0 < 600*sim.Millisecond || tol0 > 700*sim.Millisecond {
		t.Fatalf("initial tolerance = %v", tol0)
	}
	n.Start()
	s.RunFor(300 * sim.Millisecond)
	tol1, _ := tbl.MinTolerance()
	if tol1 >= tol0 {
		t.Fatalf("tolerance did not shrink as the buffer filled: %v -> %v", tol0, tol1)
	}
	n.Stop()
	if _, ok := tbl.MinTolerance(); ok {
		t.Fatal("LTR report not removed on Stop")
	}
}

// Every event the NIC schedules — RX arrivals and the post-wake drain
// poll — is a peripheral event (the package's contract with the platform's
// MEE op replay).
func TestNICEventsArePeripheral(t *testing.T) {
	s, tbl, h := bench(t)
	n, err := NewNIC(s, tbl, h, NICConfig{RateKBps: 1000, PacketBytes: 1500, BufferBytes: 16 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	for s.Now() < sim.Time(sim.Second) && s.Step() {
		if s.Pending() != s.PeripheralPending() {
			t.Fatalf("at %v: %d events queued, only %d peripheral", s.Now(), s.Pending(), s.PeripheralPending())
		}
		// The host sleeps until the NIC has raised a few wakes, so the
		// drain poll runs both while asleep and once awake.
		h.active = h.wakes >= 3
	}
	if _, wakes, _ := n.Stats(); wakes < 3 {
		t.Fatalf("NIC raised %d wakes, want at least 3", wakes)
	}
	n.Stop()
}

func TestNICOverflowAccounting(t *testing.T) {
	s, tbl, h := bench(t)
	h.active = false
	// High-water at 100%: the host is never woken (h ignores), so the
	// buffer must saturate and count drops.
	n, err := NewNIC(s, tbl, h, NICConfig{
		RateKBps: 1000, PacketBytes: 1500, BufferBytes: 16 << 10,
		HighWaterFraction: 1.0, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	s.RunFor(sim.Second)
	n.Stop()
	_, _, overflows := n.Stats()
	if overflows == 0 {
		t.Fatal("saturated buffer counted no overflows")
	}
	if n.Buffered() > 16<<10 {
		t.Fatal("buffer exceeded capacity")
	}
}

func TestAudioStreamLTR(t *testing.T) {
	s, tbl, _ := bench(t)
	_ = s
	a := NewAudioStream(tbl, "audio", 2*sim.Millisecond)
	tol, ok := tbl.MinTolerance()
	if !ok || tol != 2*sim.Millisecond {
		t.Fatalf("tolerance = %v,%v", tol, ok)
	}
	a.Stop()
	if _, ok := tbl.MinTolerance(); ok {
		t.Fatal("audio report not removed")
	}
}
