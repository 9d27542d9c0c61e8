package server

import (
	"encoding/binary"
	"testing"

	"repro/store"
	"repro/wire"
)

// The serve+encode hot path — what one worker plus the writer do per request,
// minus the socket — must stay allocation-free in steady state for Get and
// Scan: that is what keeps the server's read throughput GC-quiet.

func newServePath(tb testing.TB, nKeys int) (*conn, *store.Session, []uint64) {
	tb.Helper()
	st, err := store.Open(store.Options{Shards: 4, ShardSize: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	ss := st.NewSession()
	tb.Cleanup(ss.Close)
	keys := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 1
		if err := ss.Put(keys[i], keys[i]^0xbeef); err != nil {
			tb.Fatal(err)
		}
	}
	s := New(st, Options{})
	return newConn(s, nil), ss, keys
}

// serveEncode runs one request through executeOne — serve plus the stage
// instrumentation, so the alloc pins cover the metrics record path — and
// the writer's encode step, recycling the pooled buffers the way writeLoop
// does.
func serveEncode(c *conn, ss *store.Session, req *wire.Request, buf []byte) ([]byte, wire.Status) {
	resp := c.executeOne(ss, req, c.srv.mnow(), 0, &c.sampler)
	buf, err := wire.AppendResponse(buf[:0], &resp.Response)
	if err != nil {
		panic(err)
	}
	c.recycleRespBufs(&resp)
	return buf, resp.Status
}

func BenchmarkServeGet(b *testing.B) {
	c, ss, keys := newServePath(b, 20000)
	req := wire.Request{ID: 1, Op: wire.OpGet}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Key = keys[i%len(keys)]
		var st wire.Status
		buf, st = serveEncode(c, ss, &req, buf)
		if st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

func BenchmarkServeScan(b *testing.B) {
	c, ss, _ := newServePath(b, 20000)
	req := wire.Request{ID: 1, Op: wire.OpScan, Lo: 0, Hi: ^uint64(0), Max: 100}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st wire.Status
		buf, st = serveEncode(c, ss, &req, buf)
		if st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

// newServePathK preloads byte-key values for the byte-key serve
// benchmarks: 8-byte big-endian keys, one single-entry bucket each.
func newServePathK(tb testing.TB, nKeys, valSize int) (*conn, *store.Session, [][]byte) {
	tb.Helper()
	st, err := store.Open(store.Options{Shards: 4, ShardSize: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	ss := st.NewSession()
	tb.Cleanup(ss.Close)
	keys := make([][]byte, nKeys)
	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte(i)
	}
	for i := range keys {
		keys[i] = binary.BigEndian.AppendUint64(nil, uint64(i)*2654435761+1)
		if err := ss.PutKV(keys[i], val); err != nil {
			tb.Fatal(err)
		}
	}
	s := New(st, Options{})
	return newConn(s, nil), ss, keys
}

func BenchmarkServeGetK(b *testing.B) {
	c, ss, keys := newServePathK(b, 20000, 128)
	req := wire.Request{ID: 1, Op: wire.OpGetK}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.KKey = keys[i%len(keys)]
		var st wire.Status
		buf, st = serveEncode(c, ss, &req, buf)
		if st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

func BenchmarkServePutK(b *testing.B) {
	c, ss, keys := newServePathK(b, 20000, 128)
	val := make([]byte, 128)
	req := wire.Request{ID: 1, Op: wire.OpPutK, VVal: val}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.KKey = keys[i%len(keys)]
		var st wire.Status
		buf, st = serveEncode(c, ss, &req, buf)
		if st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

func BenchmarkServeScanK(b *testing.B) {
	c, ss, _ := newServePathK(b, 20000, 128)
	req := wire.Request{ID: 1, Op: wire.OpScanK, Max: 100}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st wire.Status
		buf, st = serveEncode(c, ss, &req, buf)
		if st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

// TestServeByteKeyAllocDiscipline bounds the byte-key serve+encode path:
// all buffers (value arena, pair slices, bucket images, frame) are pooled,
// so GetK, like the fixed ops, must stay allocation-free, and the only
// steady-state allocations ScanK may make are the small constant ones its
// per-shard tree-page collectors need — never per-byte or per-pair costs.
func TestServeByteKeyAllocDiscipline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is checked in non-race runs")
	}
	c, ss, keys := newServePathK(t, 5000, 256)
	var buf []byte

	get := wire.Request{ID: 1, Op: wire.OpGetK, KKey: keys[0]}
	buf, _ = serveEncode(c, ss, &get, buf) // warm-up: sizes buffers
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		get.KKey = keys[i%len(keys)]
		i++
		var st wire.Status
		buf, st = serveEncode(c, ss, &get, buf)
		if st != wire.StatusOK {
			t.Fatalf("status %v", st)
		}
	}); allocs != 0 {
		t.Errorf("GetK serve+encode allocs/op = %v, want 0", allocs)
	}

	scan := wire.Request{ID: 2, Op: wire.OpScanK, Max: 64}
	buf, _ = serveEncode(c, ss, &scan, buf) // warm-up
	if allocs := testing.AllocsPerRun(100, func() {
		var st wire.Status
		buf, st = serveEncode(c, ss, &scan, buf)
		if st != wire.StatusOK {
			t.Fatalf("status %v", st)
		}
	}); allocs > 4 {
		t.Errorf("ScanK serve+encode allocs/op = %v, want <= 4 (one tree-page collector per shard, not per pair)", allocs)
	}
}

// TestServeReadPathAllocs is the regression gate on the zero-allocation
// contract: steady-state Get and Scan must not touch the heap anywhere in
// serve+encode.
func TestServeReadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is checked in non-race runs")
	}
	c, ss, keys := newServePath(t, 5000)
	var buf []byte

	get := wire.Request{ID: 1, Op: wire.OpGet, Key: keys[0]}
	buf, _ = serveEncode(c, ss, &get, buf) // warm-up: sizes buffers
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		get.Key = keys[i%len(keys)]
		i++
		var st wire.Status
		buf, st = serveEncode(c, ss, &get, buf)
		if st != wire.StatusOK {
			t.Fatalf("status %v", st)
		}
	}); allocs != 0 {
		t.Errorf("Get serve+encode allocs/op = %v, want 0", allocs)
	}

	scan := wire.Request{ID: 2, Op: wire.OpScan, Lo: 0, Hi: ^uint64(0), Max: 128}
	buf, _ = serveEncode(c, ss, &scan, buf) // warm-up
	if allocs := testing.AllocsPerRun(100, func() {
		var st wire.Status
		buf, st = serveEncode(c, ss, &scan, buf)
		if st != wire.StatusOK {
			t.Fatalf("status %v", st)
		}
	}); allocs != 0 {
		t.Errorf("Scan serve+encode allocs/op = %v, want 0", allocs)
	}
}
