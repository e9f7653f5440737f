package transport

import (
	"context"

	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// rawServer accepts one framed connection and hands it to fn. It speaks
// the wire format directly so tests can misbehave in controlled ways
// (close mid-call, answer out of order).
func rawServer(t *testing.T, fn func(c net.Conn)) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		fn(c)
	}()
	return ln.Addr()
}

// readRawFrame reads one frame from a raw test server's connection.
func readRawFrame(t *testing.T, c net.Conn) (id uint64, msgType uint8, payload []byte) {
	t.Helper()
	var lenBuf [4]byte
	if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
		t.Errorf("raw read: %v", err)
		return 0, 0, nil
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	rest := make([]byte, n)
	if _, err := io.ReadFull(c, rest); err != nil {
		t.Errorf("raw read body: %v", err)
		return 0, 0, nil
	}
	return binary.BigEndian.Uint64(rest[0:8]), rest[9], rest[10:]
}

// TestTCPMidCallInterrupted pins the failure contract: a connection that
// dies after the request was written surfaces ErrCallInterrupted — the
// remote may have processed the call, so non-idempotent operations must
// not be blindly retried — and specifically NOT ErrUnreachable.
func TestTCPMidCallInterrupted(t *testing.T) {
	addr := rawServer(t, func(c net.Conn) {
		readRawFrame(t, c) // swallow the request, then drop the connection
	})
	cli, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, _, err = cli.Call(context.Background(), Addr(addr.String()), 7, []byte("doomed"))
	if !errors.Is(err, ErrCallInterrupted) {
		t.Fatalf("err = %v, want ErrCallInterrupted", err)
	}
	if errors.Is(err, ErrUnreachable) {
		t.Fatalf("mid-call loss must not look unreachable: %v", err)
	}
}

// TestTCPInterruptFailsAllInFlight checks that every pipelined in-flight
// call on a dying connection is interrupted, not just the one whose
// response was being read. A warm-up call pins the pooled connection
// first, so the concurrent calls cannot race the dial.
func TestTCPInterruptFailsAllInFlight(t *testing.T) {
	const calls = 4
	addr := rawServer(t, func(c net.Conn) {
		// Answer the warm-up, then swallow the in-flight batch and drop.
		id, mt, body := readRawFrame(t, c)
		if err := (&frameWriter{w: c}).writeFrame(id, kindResponse, mt+1, 0, body); err != nil {
			t.Errorf("warm-up write: %v", err)
			return
		}
		for i := 0; i < calls; i++ {
			readRawFrame(t, c)
		}
	})
	cli, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, err := cli.Call(context.Background(), Addr(addr.String()), 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = cli.Call(context.Background(), Addr(addr.String()), 1, []byte{byte(i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrCallInterrupted) {
			t.Errorf("call %d: err = %v, want ErrCallInterrupted", i, err)
		}
	}
}

// TestTCPReconnectAfterDrop checks the pool recovers from a dropped
// connection: the failed call is surfaced, and the next call dials a
// fresh connection and succeeds.
func TestTCPReconnectAfterDrop(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, _, err := cli.Call(context.Background(), srv.Addr(), 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	// Kill every server-side connection under the client's feet.
	srv.mu.Lock()
	for c := range srv.accepted {
		c.Close()
	}
	srv.mu.Unlock()

	// The pooled connection dies asynchronously; calls racing the
	// teardown may be interrupted, but the pool must re-dial and serve
	// again within a few attempts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		respType, resp, err := cli.Call(context.Background(), srv.Addr(), 1, []byte("again"))
		if err == nil {
			if respType != 2 || string(resp) != "echo:again" {
				t.Fatalf("bad reconnected response (%d, %q)", respType, resp)
			}
			return
		}
		if !errors.Is(err, ErrCallInterrupted) && !errors.Is(err, ErrUnreachable) {
			t.Fatalf("unexpected error class during teardown: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reconnected: %v", err)
		}
	}
}

// TestTCPOutOfOrderResponses pins the pipelining contract: responses are
// matched to callers by request ID, so a server answering in reverse
// order must not cross the replies.
func TestTCPOutOfOrderResponses(t *testing.T) {
	const calls = 3
	received := make(chan struct{}, calls)
	addr := rawServer(t, func(c net.Conn) {
		// Answer the warm-up that pins the pooled connection.
		id, mt, body := readRawFrame(t, c)
		if err := (&frameWriter{w: c}).writeFrame(id, kindResponse, mt+1, 0, body); err != nil {
			t.Errorf("warm-up write: %v", err)
			return
		}
		type req struct {
			id      uint64
			msgType uint8
			payload []byte
		}
		var reqs []req
		for i := 0; i < calls; i++ {
			id, mt, body := readRawFrame(t, c)
			reqs = append(reqs, req{id, mt, body})
			received <- struct{}{}
		}
		// Answer newest-first.
		for i := len(reqs) - 1; i >= 0; i-- {
			r := reqs[i]
			resp := append([]byte("ans:"), r.payload...)
			if err := (&frameWriter{w: c}).writeFrame(r.id, kindResponse, r.msgType+1, 0, resp); err != nil {
				t.Errorf("raw write: %v", err)
				return
			}
		}
	})
	cli, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, err := cli.Call(context.Background(), Addr(addr.String()), 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// Sequence the sends so the server receives them in a known order:
	// each launch waits until the server confirms it holds the previous
	// request, so "newest-first" below really is reverse send order.
	var wg sync.WaitGroup
	errs := make([]error, calls)
	resps := make([][]byte, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, resps[i], errs[i] = cli.Call(context.Background(), Addr(addr.String()), uint8(10+i), []byte{byte('a' + i)})
		}(i)
		<-received
	}
	wg.Wait()
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		want := fmt.Sprintf("ans:%c", 'a'+i)
		if string(resps[i]) != want {
			t.Errorf("call %d got %q, want %q", i, resps[i], want)
		}
	}
}

// TestTCPPipelinedConcurrentCalls hammers one connection from many
// goroutines against a real (concurrently dispatching) server and
// checks every response reaches its caller intact.
func TestTCPPipelinedConcurrentCalls(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, from Addr, mt uint8, body []byte) (uint8, []byte, error) {
		if mt == 9 {
			//alvislint:allow sleepsync simulated slow handler: real elapsed service time is the scenario
			time.Sleep(10 * time.Millisecond) // slow path must not block fast ones
		}
		return mt + 1, append([]byte("r:"), body...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				mt := uint8(1 + (g+j)%2*8) // mix of fast (1) and slow (9) calls
				payload := []byte(fmt.Sprintf("g%dj%d", g, j))
				respType, resp, err := cli.Call(context.Background(), srv.Addr(), mt, payload)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if respType != mt+1 || string(resp) != "r:"+string(payload) {
					t.Errorf("crossed reply: type %d payload %q for %q", respType, resp, payload)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
