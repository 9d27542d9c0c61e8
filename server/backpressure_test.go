package server

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/client"
	"repro/store"
	"repro/wire"
)

// writeUntilBlocked pumps identical frames into nc until a write deadline
// fires (the server has stopped reading and every buffer in between is
// full), returning the total bytes written — including a possible partial
// trailing frame. frame must be one complete encoded request.
func writeUntilBlocked(t *testing.T, nc net.Conn, frame []byte, limit int) int {
	t.Helper()
	chunk := make([]byte, 0, 64*len(frame))
	for i := 0; i < 64; i++ {
		chunk = append(chunk, frame...)
	}
	total := 0
	for total < limit {
		nc.SetWriteDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := nc.Write(chunk)
		total += n
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return total
			}
			t.Fatalf("slow client write: %v", err)
		}
	}
	t.Fatalf("wrote %d bytes without ever blocking; backpressure never engaged", total)
	return total
}

// TestSlowClientBackpressure wedges one connection — a client that sends
// Get requests forever but never reads a response — and checks the three
// promises the pipeline makes about it: the server-side memory it can pin
// is bounded by MaxInflight (everything else backs up in the kernel's
// socket buffers and finally in the client), the shared workers keep
// serving other connections at full speed, and once the slow client drains
// its responses a graceful Shutdown still completes.
func TestSlowClientBackpressure(t *testing.T) {
	const maxInflight = 64
	ts := startServer(t, store.Options{}, Options{
		// One worker shared by both connections, inlining disabled, so
		// the wedged connection's batches land on the same worker the
		// healthy connection depends on — the harshest steering case.
		Workers:     1,
		InlineBatch: -1,
		MaxInflight: maxInflight,
	})

	slow, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	tc := slow.(*net.TCPConn)
	// Shrink the socket buffers so the test hits the wall after tens of
	// kilobytes instead of the kernel's autotuned megabytes.
	tc.SetReadBuffer(4 << 10)
	tc.SetWriteBuffer(4 << 10)

	// One Get of an absent key: 21 request bytes in, 14 response bytes
	// (NotFound) out, every time.
	frame, err := wire.AppendRequest(nil, &wire.Request{ID: 7, Op: wire.OpGet, Key: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	written := writeUntilBlocked(t, slow, frame, 512<<20)
	fullFrames := written / len(frame)
	if fullFrames < maxInflight {
		t.Fatalf("only %d frames written before blocking; cannot have filled the pipeline", fullFrames)
	}
	t.Logf("slow client wedged after %d bytes (%d frames)", written, fullFrames)

	// Bounded memory: responses served but not yet handed to the kernel
	// are capped by the credit window. Everything the server has served
	// beyond BytesOut/14 is sitting in respCh or the coalescing slab.
	st := ts.srv.Stats()
	if held := int64(st.Ops) - int64(st.BytesOut)/14; held > maxInflight+maxIngest {
		t.Fatalf("server holds %d unflushed responses, want <= %d", held, maxInflight+maxIngest)
	}

	// The wedged connection must not stall anyone else: a second
	// connection does synchronous round trips through the same single
	// worker, each bounded by a short deadline.
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	for i := uint64(1); i <= 500; i++ {
		if err := c.Put(i, i*3); err != nil {
			t.Fatalf("healthy conn Put while peer wedged: %v", err)
		}
		if v, ok, err := c.Get(i); err != nil || !ok || v != i*3 {
			t.Fatalf("healthy conn Get(%d) = (%d,%v,%v)", i, v, ok, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("healthy conn needed %v for 1000 ops next to a wedged peer", elapsed)
	}

	// Drain the slow client: every fully-written frame gets its response
	// (frame header + the 10-byte NotFound body) once the window reopens.
	// The trailing partial frame (if any) gets nothing — the server is
	// still waiting for its remainder. The tiny receive buffer did its job
	// (forcing the wedge); restore a normal one first, or the backlog
	// trickles through a 4 KiB window at loopback-stall speed.
	tc.SetReadBuffer(1 << 20)
	want := fullFrames * (wire.FrameHdrSize + 10)
	got := 0
	buf := make([]byte, 64<<10)
	for got < want {
		slow.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, err := slow.Read(buf)
		got += n
		if err != nil {
			t.Fatalf("draining slow client after %d/%d bytes: %v", got, want, err)
		}
	}
	if got != want {
		t.Fatalf("slow client drained %d response bytes, want %d", got, want)
	}

	// With the slow client drained, graceful shutdown completes: the
	// partial frame's reader is deadlined out, the writer has answered
	// everything issued, and the workers park.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown next to drained slow client: %v", err)
	}
	if _, err := io.ReadAll(slow); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("slow client final read: %v", err)
	}
}

// TestShutdownAbortsWedgedClient: a client that never drains responses too
// large to park in the kernel's socket buffers wedges its writer for good,
// so graceful shutdown cannot finish on its own — the expiring context
// must abort the connection and still leave the server fully torn down.
// (With small responses a wedged client does NOT block Shutdown: its
// bounded in-flight window drains into the socket buffers and the
// connection closes cleanly — TestSlowClientBackpressure's ending.)
func TestShutdownAbortsWedgedClient(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{MaxInflight: 32, InlineBatch: -1})

	// Store one value near the frame cap; each GetK response carries it.
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 600<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.PutKV([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	c.Close()

	slow, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	tc := slow.(*net.TCPConn)
	tc.SetReadBuffer(4 << 10)
	tc.SetWriteBuffer(4 << 10)
	var out []byte
	for i := uint64(1); i <= 200; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{ID: i, Op: wire.OpGetK, KKey: []byte("big")})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := slow.Write(out); err != nil {
		t.Fatal(err)
	}
	// Wait until the in-flight window is full: 32 pending 600 KiB
	// responses cannot fit any socket buffer, so the connection's writer
	// is now truly stuck in a Write.
	deadline := time.Now().Add(10 * time.Second)
	for ts.srv.Stats().Ops < 32 {
		if time.Now().After(deadline) {
			t.Fatalf("server served only %d ops; wedge never formed", ts.srv.Stats().Ops)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
}

// TestResponseIDsSurviveWedge sanity-checks the drain math above: a short
// wedge round-trips intact frames whose ids echo back exactly.
func TestResponseIDsSurviveWedge(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{MaxInflight: 8, InlineBatch: -1})
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const n = 100
	var out []byte
	for i := uint64(1); i <= n; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{ID: i, Op: wire.OpGet, Key: i})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	r := io.Reader(nc)
	for i := 0; i < n; i++ {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		body, err := wire.ReadFrame(r, wire.MaxFrame, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		resp, err := wire.DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusNotFound {
			t.Fatalf("id %d: status %v, want NotFound", resp.ID, resp.Status)
		}
		if seen[resp.ID] || resp.ID == 0 || resp.ID > n {
			t.Fatalf("bad or duplicate response id %d", resp.ID)
		}
		seen[resp.ID] = true
	}
}
