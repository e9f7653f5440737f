package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Dispatcher multiplexes one endpoint among several protocol layers. Each
// layer registers handlers for its message-type range (the ranges are
// documented in package dht); the dispatcher's Serve method is installed
// as the endpoint's Handler.
//
// The dispatcher is also the peer's admission-control point (the
// hop-by-hop congestion idea of Klemm, Le Boudec & Aberer — the paper's
// reference [2] — applied to the real stack): when enabled, a request
// whose wire-shipped deadline budget has already expired, or whose
// remaining budget cannot cover the peer's observed per-message-type
// service time while the peer is above its in-flight watermark, is
// refused with ErrShed *before* the handler runs. The rule is the same for
// every message type, and a batch frame is refused whole, never cut to a
// prefix. The caller can tell a shed from a real remote failure and retry
// on another replica.
type Dispatcher struct {
	mu       sync.RWMutex
	handlers map[uint8]Handler
	closed   bool

	admission admissionState

	inflight     atomic.Int64 // handlers currently executing
	sheds        atomic.Int64 // requests refused before work
	lateExecuted atomic.Int64 // expired-budget requests that ran anyway
}

// admissionState holds the admission-control configuration and the
// per-message-type service-time EWMAs it keys its decisions on.
type admissionState struct {
	mu         sync.Mutex
	watermark  int           // 0 = admission control disabled
	minService time.Duration // floor under the EWMA estimates
	svc        map[uint8]time.Duration
}

// ewmaWeight is the weight of a new observation in the service-time
// EWMA: estimate += (observed - estimate) / ewmaWeight.
const ewmaWeight = 5

// NewDispatcher returns an empty dispatcher (admission control off).
func NewDispatcher() *Dispatcher {
	return &Dispatcher{handlers: make(map[uint8]Handler)}
}

// Handle registers h for msgType. Registering the same type twice panics:
// it would silently shadow a protocol layer.
func (d *Dispatcher) Handle(msgType uint8, h Handler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.handlers[msgType]; dup {
		panic(fmt.Sprintf("transport: duplicate handler for message type 0x%02x", msgType))
	}
	d.handlers[msgType] = h
}

// Handles reports whether a handler is registered for msgType. The
// per-package frame-parity tests use it to prove every Msg* constant is
// routed.
func (d *Dispatcher) Handles(msgType uint8) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.handlers[msgType] != nil
}

// SetAdmissionControl enables (watermark > 0) or disables (watermark <= 0)
// deadline-based admission control. watermark is the in-flight handler
// count at or above which the peer counts as overloaded; minService is a
// floor under the learned per-message-type service-time estimates, useful
// before the EWMAs have warmed up (0 keeps the pure EWMA). Requests
// without a deadline budget are never shed.
func (d *Dispatcher) SetAdmissionControl(watermark int, minService time.Duration) {
	d.admission.mu.Lock()
	d.admission.watermark = watermark
	d.admission.minService = minService
	d.admission.mu.Unlock()
}

// AdmissionStats reports the admission-control counters: sheds is the
// number of requests refused before any work; lateExecuted counts the
// requests that arrived with an already-expired budget but ran anyway
// because admission control was disabled — the "wasted work" a PR 3
// style peer performs, which experiment E11 compares across modes.
func (d *Dispatcher) AdmissionStats() (sheds, lateExecuted int64) {
	return d.sheds.Load(), d.lateExecuted.Load()
}

// Inflight returns the number of handlers currently executing.
func (d *Dispatcher) Inflight() int { return int(d.inflight.Load()) }

// ServiceEstimate returns the current service-time estimate for msgType:
// the learned EWMA, floored at the configured minimum (0 if neither is
// set yet).
func (d *Dispatcher) ServiceEstimate(msgType uint8) time.Duration {
	_, est := d.admissionFor(msgType)
	return est
}

// admissionFor returns the in-flight watermark and msgType's service-time
// estimate, read together under the admission lock.
func (d *Dispatcher) admissionFor(msgType uint8) (watermark int, est time.Duration) {
	d.admission.mu.Lock()
	defer d.admission.mu.Unlock()
	est = d.admission.svc[msgType]
	if est < d.admission.minService {
		est = d.admission.minService
	}
	return d.admission.watermark, est
}

// admit decides whether a request may run, based on its reconstructed
// deadline and the peer's load. It returns nil to admit, or an
// ErrShed-wrapped error to refuse. Side effect: when admission control is
// off it still counts expired-budget requests that are about to execute,
// so experiments can measure the wasted work shedding would have avoided.
func (d *Dispatcher) admit(ctx context.Context, msgType uint8) error {
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline {
		return nil // no budget announced: never shed
	}
	remaining := time.Until(deadline)
	watermark, est := d.admissionFor(msgType)
	if watermark <= 0 {
		if remaining <= 0 {
			d.lateExecuted.Add(1)
		}
		return nil
	}
	if remaining <= 0 {
		// The budget is already gone: the response cannot make it back in
		// time whatever the load is. Doing the work would only burn cycles
		// and bandwidth on a caller that has left.
		d.sheds.Add(1)
		return fmt.Errorf("%w: budget expired for 0x%02x", ErrShed, msgType)
	}
	if int(d.inflight.Load()) >= watermark && remaining < est {
		d.sheds.Add(1)
		return fmt.Errorf("%w: %s budget < %s service time for 0x%02x under load",
			ErrShed, remaining.Round(time.Microsecond), est.Round(time.Microsecond), msgType)
	}
	return nil
}

// observe folds one successful handler execution into the per-type
// service-time EWMA.
func (d *Dispatcher) observe(msgType uint8, took time.Duration) {
	d.admission.mu.Lock()
	if d.admission.svc == nil {
		d.admission.svc = make(map[uint8]time.Duration)
	}
	old, seen := d.admission.svc[msgType]
	if !seen {
		d.admission.svc[msgType] = took
	} else {
		d.admission.svc[msgType] = old + (took-old)/ewmaWeight
	}
	d.admission.mu.Unlock()
}

// Close stops the dispatcher from accepting new work: every subsequent
// Serve returns ErrClosed as a remote error. Requests already inside a
// handler run to completion (the transports drain them on their own
// Close). Part of a peer's graceful shutdown.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
}

// Serve implements Handler by routing to the registered handler, after
// the admission check described on the Dispatcher type.
func (d *Dispatcher) Serve(ctx context.Context, from Addr, msgType uint8, body []byte) (uint8, []byte, error) {
	d.mu.RLock()
	closed := d.closed
	h := d.handlers[msgType]
	d.mu.RUnlock()
	if closed {
		return 0, nil, ErrClosed
	}
	if h == nil {
		return 0, nil, fmt.Errorf("no handler for message type 0x%02x", msgType)
	}
	if err := d.admit(ctx, msgType); err != nil {
		return 0, nil, err
	}
	d.inflight.Add(1)
	start := time.Now()
	respType, resp, err := h(ctx, from, msgType, body)
	d.inflight.Add(-1)
	if err == nil {
		// Only successful executions feed the estimate: a burst of
		// fast-failing requests (stale-route rejections, decode errors)
		// must not drag the EWMA toward zero and silently disable
		// shedding right when the peer is struggling.
		d.observe(msgType, time.Since(start))
	}
	return respType, resp, err
}
