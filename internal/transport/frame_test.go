package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestFrameGoldenBytes pins the frame encoding byte for byte: these are
// the frames the two-write encoder produced before frames were assembled
// into one buffer, with and without a deadline budget, for every kind.
func TestFrameGoldenBytes(t *testing.T) {
	cases := []struct {
		name    string
		id      uint64
		kind    uint8
		msgType uint8
		budget  uint64
		payload string
		want    string
	}{
		{"request", 7, kindRequest, 0x1C, 0, "query", "0000000f0000000000000007001c7175657279"},
		{"request+budget", 0x0102030405060708, kindRequest, 0x1C, 1234, "query", "000000110102030405060708801cd2097175657279"},
		{"response", 9, kindResponse, 0x1D, 0, "answer", "000000100000000000000009011d616e73776572"},
		{"error", 10, kindError, 0x1C, 0, "boom", "0000000e000000000000000a021c626f6f6d"},
		{"shed", 11, kindShed, 0x1C, 0, "", "0000000a000000000000000b031c"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		fw := &frameWriter{w: &out}
		if err := fw.writeFrame(c.id, c.kind, c.msgType, c.budget, []byte(c.payload)); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(out.Bytes()); got != c.want {
			t.Errorf("%s frame = %s, want %s", c.name, got, c.want)
		}
	}
}

// countingConn records every Write handed to the connection.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *countingConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// TestTCPOneWritePerFrame runs real calls through Call and serveConn over
// an in-memory pipe whose two ends count Writes: every request and every
// response is exactly one Write holding exactly one whole frame, with and
// without a deadline budget, and the frames match the golden encoding.
func TestTCPOneWritePerFrame(t *testing.T) {
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

	cliEnd, srvEnd := net.Pipe()
	cliConn, srvConn := &countingConn{Conn: cliEnd}, &countingConn{Conn: srvEnd}
	srv.mu.Lock()
	srv.accepted[srvConn] = struct{}{}
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.serveConn(srvConn)
	const peer = Addr("pipe-peer")
	conn := newTCPConn(cliConn)
	cli.mu.Lock()
	cli.conns[peer] = conn
	cli.mu.Unlock()
	cli.wg.Add(1)
	go cli.readLoop(peer, conn)

	if _, resp, err := cli.Call(context.Background(), peer, 0x1C, []byte("query")); err != nil || string(resp) != "echo:query" {
		t.Fatalf("plain call: %q, %v", resp, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, resp, err := cli.Call(ctx, peer, 0x1C, []byte("query")); err != nil || string(resp) != "echo:query" {
		t.Fatalf("budgeted call: %q, %v", resp, err)
	}

	reqs, resps := cliConn.written(), srvConn.written()
	if len(reqs) != 2 || len(resps) != 2 {
		t.Fatalf("writes: %d requests, %d responses; want one Write per frame (2 and 2)", len(reqs), len(resps))
	}
	for _, w := range append(reqs, resps...) {
		if n := binary.BigEndian.Uint32(w[:4]); int(n)+4 != len(w) {
			t.Fatalf("a Write holds %d bytes, its frame %d", len(w), n+4)
		}
	}
	if got, want := hex.EncodeToString(reqs[0]), "0000000f0000000000000001001c7175657279"; got != want {
		t.Errorf("request frame = %s, want %s", got, want)
	}
	if reqs[1][12] != kindRequest|flagDeadline {
		t.Errorf("budgeted request kind byte = %#x, want the deadline flag", reqs[1][12])
	}
	for i, want := range []string{
		"000000140000000000000001011d6563686f3a7175657279",
		"000000140000000000000002011d6563686f3a7175657279",
	} {
		if got := hex.EncodeToString(resps[i]); got != want {
			t.Errorf("response %d frame = %s, want %s", i, got, want)
		}
	}
}

// chunkReader hands out one chunk per Read, the way frames arrive in
// segments from the network.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := copy(p, r.chunks[0])
	r.chunks[0] = r.chunks[0][n:]
	if len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// TestReadFrameBackToBackKeepsPayload: two frames arriving in one read are
// both decoded from that one read, and the payloads readFrame returned
// stay intact after later frames refill the reader's buffer — a payload
// is never a view of the buffer.
func TestReadFrameBackToBackKeepsPayload(t *testing.T) {
	frame := func(id uint64, payload string) []byte {
		var out bytes.Buffer
		if err := (&frameWriter{w: &out}).writeFrame(id, kindResponse, 0x1D, 0, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	first := append(frame(1, "first-payload"), frame(2, "secondpayload")...)
	src := &chunkReader{chunks: [][]byte{first, frame(3, "third-payload")}}
	r := bufio.NewReaderSize(src, frameReadBuf)

	var payloads [][]byte
	for id := uint64(1); id <= 3; id++ {
		gotID, _, _, _, payload, err := readFrame(r)
		if err != nil || gotID != id {
			t.Fatalf("frame %d: id %d, %v", id, gotID, err)
		}
		payloads = append(payloads, payload)
		if id == 2 && src.reads != 1 {
			t.Fatalf("two back-to-back frames took %d reads, want 1", src.reads)
		}
	}
	for i, want := range []string{"first-payload", "secondpayload", "third-payload"} {
		if string(payloads[i]) != want {
			t.Errorf("payload %d = %q after later frames were read, want %q", i+1, payloads[i], want)
		}
	}
}

// TestTCPLargeFrameRoundTrip sends frames larger than the read buffer and
// the kept write buffer both ways, then a small one on the same
// connection: the buffered reader's bypass and the writer's buffer
// release keep the stream in step.
func TestTCPLargeFrameRoundTrip(t *testing.T) {
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
	big := bytes.Repeat([]byte("0123456789abcdef"), (2*maxKeptFrameBuf)/16+3)
	for _, body := range [][]byte{big, []byte("small"), big} {
		_, resp, err := cli.Call(context.Background(), srv.Addr(), 1, body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, append([]byte("echo:"), body...)) {
			t.Fatalf("%d-byte echo came back as %d bytes", len(body), len(resp))
		}
	}
}

// BenchmarkFrameRoundTrip measures one Call over loopback TCP: a request
// frame out, a response frame back, through the pooled connection.
func BenchmarkFrameRoundTrip(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	body := bytes.Repeat([]byte("x"), 512)
	ctx := context.Background()
	if _, _, err := cli.Call(ctx, srv.Addr(), 1, body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cli.Call(ctx, srv.Addr(), 1, body); err != nil {
			b.Fatal(err)
		}
	}
}
