package transport

import (
	"bufio"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// shedFixture wires one "server" dispatcher with admission control and a
// probe handler that counts executions; stall occupies the server with a
// stuck handler so its in-flight count sits at (or above) the watermark.
type shedFixture struct {
	d        *Dispatcher
	executed atomic.Int64
	release  chan struct{}
}

func newShedFixture() *shedFixture {
	f := &shedFixture{d: NewDispatcher(), release: make(chan struct{})}
	f.d.Handle(0x01, func(context.Context, Addr, uint8, []byte) (uint8, []byte, error) {
		f.executed.Add(1)
		return 0x01, []byte("done"), nil
	})
	f.d.Handle(0x02, func(context.Context, Addr, uint8, []byte) (uint8, []byte, error) {
		<-f.release
		return 0x02, nil, nil
	})
	// Watermark 1 with a 50ms service-time floor: once one handler is
	// stuck in flight, any deadline below 50ms must be refused.
	f.d.SetAdmissionControl(1, 50*time.Millisecond)
	return f
}

// occupy parks one call inside the stalling handler and waits until the
// dispatcher counts it in flight.
func (f *shedFixture) occupy(t *testing.T, call func(ctx context.Context, msgType uint8) error) {
	t.Helper()
	go func() { _ = call(context.Background(), 0x02) }()
	deadline := time.Now().Add(2 * time.Second)
	for f.d.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalling call never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}
}

// runShedScenario drives the shared scenario through an arbitrary
// transport: a short-budget request against an overloaded server must
// come back as ErrShed without the handler having run, and the same
// request without a deadline must execute normally. Both transports must
// agree on these semantics.
func runShedScenario(t *testing.T, f *shedFixture, call func(ctx context.Context, msgType uint8) (uint8, []byte, error)) {
	t.Helper()
	defer close(f.release)
	f.occupy(t, func(ctx context.Context, mt uint8) error {
		_, _, err := call(ctx, mt)
		return err
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := call(ctx, 0x01)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("short-budget call under load: err = %v, want ErrShed", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatalf("a shed must not look like a remote application error: %v", err)
	}
	if got := f.executed.Load(); got != 0 {
		t.Fatalf("handler executed %d times; a shed must happen before the work", got)
	}
	sheds, _ := f.d.AdmissionStats()
	if sheds == 0 {
		t.Fatal("dispatcher shed counter did not move")
	}

	// Without a deadline there is no budget on the wire, so the same
	// request is admitted even under load.
	respType, resp, err := call(context.Background(), 0x01)
	if err != nil || respType != 0x01 || string(resp) != "done" {
		t.Fatalf("deadline-free call = (%d, %q, %v), want it admitted", respType, resp, err)
	}
	if got := f.executed.Load(); got != 1 {
		t.Fatalf("handler executions = %d, want 1", got)
	}
}

// TestMemShedSemantics pins shedding over the in-memory transport.
func TestMemShedSemantics(t *testing.T) {
	f := newShedFixture()
	n := NewMem()
	n.Endpoint("server", f.d.Serve)
	cli := n.Endpoint("client", nil)
	runShedScenario(t, f, func(ctx context.Context, mt uint8) (uint8, []byte, error) {
		return cli.Call(ctx, "server", mt, []byte("req"))
	})
}

// TestTCPShedSemantics pins the same scenario over real sockets: the
// budget crosses the wire in the frame header, the server reconstructs
// the deadline and refuses before the handler runs, and the shed comes
// back as the dedicated frame kind, not as a RemoteError. Mem and TCP
// agreeing on this contract is what lets the simulator's admission
// numbers transfer to the real stack.
func TestTCPShedSemantics(t *testing.T) {
	f := newShedFixture()
	srv, err := ListenTCP("127.0.0.1:0", f.d.Serve)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	runShedScenario(t, f, func(ctx context.Context, mt uint8) (uint8, []byte, error) {
		return cli.Call(ctx, srv.Addr(), mt, []byte("req"))
	})
}

// TestShedExpiredBudget: a request whose budget is already gone on
// arrival is shed even below the watermark — the work is provably doomed.
func TestShedExpiredBudget(t *testing.T) {
	d := NewDispatcher()
	var executed int
	d.Handle(0x01, func(context.Context, Addr, uint8, []byte) (uint8, []byte, error) {
		executed++
		return 0x01, nil, nil
	})
	d.SetAdmissionControl(8, 0)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := d.Serve(ctx, "x", 0x01, nil)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if executed != 0 {
		t.Fatal("expired request must be shed before the work")
	}
	sheds, late := d.AdmissionStats()
	if sheds != 1 || late != 0 {
		t.Fatalf("stats = (%d sheds, %d late), want (1, 0)", sheds, late)
	}
}

// TestShedBelowTrainedEstimate: under load, a budget must cover the
// learned service time of its message type, not only the configured
// floor. A budget above the floor but below a trained estimate is shed,
// counted, and never reaches the handler; a budget the estimate fits in
// runs.
func TestShedBelowTrainedEstimate(t *testing.T) {
	d := NewDispatcher()
	executed := 0
	d.Handle(0x50, func(context.Context, Addr, uint8, []byte) (uint8, []byte, error) {
		executed++
		return 0x50, nil, nil
	})
	d.SetAdmissionControl(1, 40*time.Millisecond)
	d.inflight.Add(1) // park the peer at its watermark
	defer d.inflight.Add(-1)
	for i := 0; i < 32; i++ {
		d.observe(0x50, 100*time.Millisecond)
	}

	mid, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, _, err := d.Serve(mid, "x", 0x50, nil); !errors.Is(err, ErrShed) {
		t.Fatalf("60ms budget against a 100ms estimate: err = %v, want ErrShed", err)
	}
	if executed != 0 {
		t.Fatalf("handler ran %d times; a shed must happen before the work", executed)
	}
	if sheds, _ := d.AdmissionStats(); sheds != 1 {
		t.Fatalf("sheds = %d, want 1", sheds)
	}

	long, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if _, _, err := d.Serve(long, "x", 0x50, nil); err != nil {
		t.Fatalf("1s budget against a 100ms estimate: %v", err)
	}
	if executed != 1 {
		t.Fatalf("handler executions = %d, want 1", executed)
	}
}

// TestAdmissionDisabledCountsWastedWork: with admission off (the PR 3
// behaviour) an expired request still runs, but the dispatcher counts it
// so experiments can report the wasted work.
func TestAdmissionDisabledCountsWastedWork(t *testing.T) {
	d := NewDispatcher()
	var executed int
	d.Handle(0x01, func(context.Context, Addr, uint8, []byte) (uint8, []byte, error) {
		executed++
		return 0x01, nil, nil
	})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := d.Serve(ctx, "x", 0x01, nil); err != nil {
		t.Fatalf("admission off must execute: %v", err)
	}
	if executed != 1 {
		t.Fatalf("executed = %d, want 1", executed)
	}
	sheds, late := d.AdmissionStats()
	if sheds != 0 || late != 1 {
		t.Fatalf("stats = (%d sheds, %d late), want (0, 1)", sheds, late)
	}
}

// TestDispatcherServiceEstimateLearns: the per-type EWMA tracks observed
// handler durations and the configured floor.
func TestDispatcherServiceEstimateLearns(t *testing.T) {
	d := NewDispatcher()
	d.Handle(0x05, func(context.Context, Addr, uint8, []byte) (uint8, []byte, error) {
		//alvislint:allow sleepsync real service time: the EWMA under test measures elapsed wall clock
		time.Sleep(5 * time.Millisecond)
		return 0x05, nil, nil
	})
	for i := 0; i < 3; i++ {
		if _, _, err := d.Serve(context.Background(), "x", 0x05, nil); err != nil {
			t.Fatal(err)
		}
	}
	if est := d.ServiceEstimate(0x05); est < 2*time.Millisecond {
		t.Fatalf("estimate = %s, want >= 2ms after 5ms observations", est)
	}
	d.SetAdmissionControl(1, time.Second)
	if est := d.ServiceEstimate(0x05); est != time.Second {
		t.Fatalf("floored estimate = %s, want 1s", est)
	}
}

// TestFrameDeadlineBudgetRoundTrip pins the frame encoding: a request
// with a budget carries the flag and the varint; one without is
// byte-compatible with the pre-budget format and decodes budget 0.
func TestFrameDeadlineBudgetRoundTrip(t *testing.T) {
	pr := newPipeRW()
	r := bufio.NewReader(pr)
	if err := (&frameWriter{w: pr}).writeFrame(7, kindRequest, 0x42, 1234, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	id, kind, msgType, budget, payload, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || kind != kindRequest || msgType != 0x42 || budget != 1234 || string(payload) != "payload" {
		t.Fatalf("got (%d, %d, 0x%02x, %d, %q)", id, kind, msgType, budget, payload)
	}

	// Absent field: the old five-field frame decodes unchanged.
	if err := (&frameWriter{w: pr}).writeFrame(8, kindResponse, 0x43, 0, []byte("old")); err != nil {
		t.Fatal(err)
	}
	id, kind, msgType, budget, payload, err = readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 || kind != kindResponse || msgType != 0x43 || budget != 0 || string(payload) != "old" {
		t.Fatalf("back-compat frame got (%d, %d, 0x%02x, %d, %q)", id, kind, msgType, budget, payload)
	}
}

// pipeRW is an in-memory byte pipe for frame round-trip tests.
type pipeRW struct{ buf []byte }

func newPipeRW() *pipeRW { return &pipeRW{} }

func (p *pipeRW) Write(b []byte) (int, error) { p.buf = append(p.buf, b...); return len(b), nil }

func (p *pipeRW) Read(b []byte) (int, error) {
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

// TestTCPLocalFastPathCancellable pins the bugfix to the loopback path:
// a stalled local handler no longer wedges the caller forever — the
// context abandons the wait with ErrCallInterrupted, exactly like the
// remote path and Mem.
func TestTCPLocalFastPathCancellable(t *testing.T) {
	defer leakcheck.Check(t)()
	release := make(chan struct{})
	var ep *TCP
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, _ Addr, mt uint8, body []byte) (uint8, []byte, error) {
		if mt == 0x09 {
			<-release
		}
		return mt, body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ep = srv
	defer ep.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = ep.Call(ctx, ep.Addr(), 0x09, []byte("stuck"))
	if since := time.Since(start); since > time.Second {
		t.Fatalf("local cancellation took %s", since)
	}
	if !errors.Is(err, ErrCallInterrupted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCallInterrupted wrapping DeadlineExceeded", err)
	}
	close(release)

	// The endpoint is unharmed; an uncancellable local call still runs
	// synchronously.
	respType, resp, err := ep.Call(context.Background(), ep.Addr(), 0x01, []byte("ok"))
	if err != nil || respType != 0x01 || string(resp) != "ok" {
		t.Fatalf("local call after cancel: (%d, %q, %v)", respType, resp, err)
	}
}

// TestMemLocalFastPathCancellable: the same loopback contract on Mem.
func TestMemLocalFastPathCancellable(t *testing.T) {
	defer leakcheck.Check(t)()
	n := NewMem()
	release := make(chan struct{})
	ep := n.Endpoint("self", func(_ context.Context, _ Addr, mt uint8, body []byte) (uint8, []byte, error) {
		if mt == 0x09 {
			<-release
		}
		return mt, body, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := ep.Call(ctx, "self", 0x09, nil)
	if !errors.Is(err, ErrCallInterrupted) {
		t.Fatalf("err = %v, want ErrCallInterrupted", err)
	}
	close(release)
}
