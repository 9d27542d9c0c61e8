package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/client"
	"repro/index"
	"repro/internal/pmem"
	"repro/server"
	"repro/store"
	"repro/wire"
)

// serve-read: the loopback service path. One process holds the store, an
// in-process server and the client pool, sized for a 2-core host.
const (
	serveShards    = 4
	serveShardSize = 64 << 20
	serveStreams   = 2 // load goroutines, one pinned connection each
	serveWorkers   = 2
	serveWindow    = 64 // async requests each stream keeps in flight (closed loop)
	serveScanPage  = 32
	// serveOpenRate is the open-loop offered rate over both streams, about
	// a fifth of the closed-loop capacity (~500 Kops/s on a 2-core x86-64
	// host), so the server is mostly idle and latency is not queueing.
	serveOpenRate = 100_000
	// serveMinAchieved is the share of the offered rate the open loop must
	// complete within its window; below it the backlog is growing and the
	// run is invalid.
	serveMinAchieved = 0.97
	serveSample      = 10_000 // preloaded keys read back at the end
)

func serveStoreOpts() store.Options {
	return store.Options{Shards: serveShards, ShardSize: serveShardSize}
}

// openServeStore opens the 4-shard DRAM-latency store and preloads it with
// keys u64 pairs through one PutBatch.
func openServeStore(keys int) (*store.Store, error) {
	st, err := store.Open(serveStoreOpts())
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	batch := make([]store.KV, keys)
	for i := range batch {
		k := serveKey(i)
		batch[i] = store.KV{Key: k, Val: serveVal(k, 0)}
	}
	ss := st.NewSession()
	err = ss.PutBatch(batch)
	ss.Close()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return st, nil
}

// serveSys is a running server over a store plus a dialled client pool.
type serveSys struct {
	srv    *server.Server
	served chan error
	pool   *client.Pool
}

func startServe(st *store.Store, conns int) (*serveSys, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveSys{srv: server.New(st, server.Options{Workers: serveWorkers}), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.pool, err = client.DialPool(ln.Addr().String(), conns, client.Options{})
	if err != nil {
		s.srv.Close()
		<-s.served
		return nil, fmt.Errorf("dial: %w", err)
	}
	return s, nil
}

// stop closes the client pool, shuts the server down gracefully and waits
// for its accept loop to end. Afterwards every server session is released.
func (s *serveSys) stop() error {
	perr := s.pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serr := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, server.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return errors.Join(perr, serr)
}

// streamConns returns n distinct connections of the pool, one per stream,
// so each stream's requests execute in its own order.
func streamConns(p *client.Pool, n int) ([]*client.Conn, error) {
	conns := make([]*client.Conn, n)
	for i := range conns {
		conns[i] = p.Conn()
		for j := 0; j < i; j++ {
			if conns[j] == conns[i] {
				return nil, errors.New("pool handed out one connection twice")
			}
		}
	}
	return conns, nil
}

// tracedServeOp is one traced request, kept for the inner-layer replays.
type tracedServeOp struct {
	op        serveOp
	req, call uint64 // request id and its serve.call span
	storeSpan uint64 // the replayed store span, for the core replay
}

// serveStream is one load goroutine's state.
type serveStream struct {
	id    int
	conn  *client.Conn
	gen   *serveGen
	peers []*serveGen // every stream's generator, indexed by key parity
	keys  int
	seq   uint64 // requests issued
	// last is the value this stream last wrote to each key it owns
	// (index/2), 0 = still the preloaded value.
	last []uint64

	ops, failed, puts int64
	ser               *series         // the current phase's completions
	late              []time.Duration // open-loop send lateness
	achieved          int64           // open-loop completions inside the phase

	tr     *tracer
	traced []tracedServeOp
}

func newServeStreams(seed int64, keys int, conns []*client.Conn) []*serveStream {
	gens := make([]*serveGen, len(conns))
	for i := range gens {
		gens[i] = newServeGen(seed, i, keys)
	}
	ss := make([]*serveStream, len(conns))
	for i := range ss {
		ss[i] = &serveStream{id: i, conn: conns[i], gen: gens[i], peers: gens,
			keys: keys, last: make([]uint64, keys/2+1)}
	}
	return ss
}

// versionBound returns, per key index, the highest version written so far
// to that key's owner: no correct read can return a later one.
func versionBound(gens []*serveGen) func(idx int) uint32 {
	return func(idx int) uint32 { return gens[idx%len(gens)].version.Load() }
}

func (s *serveStream) issue(op serveOp) *client.Call {
	k := serveKey(op.idx)
	switch op.kind {
	case serveGet:
		return s.conn.GetAsync(k)
	case servePut:
		return s.conn.PutAsync(k, op.val)
	default:
		return s.conn.ScanAsync(k, math.MaxUint64, serveScanPage)
	}
}

// checkServeVal verifies a value read for key index idx: it must carry the
// key's tag and a version its owner has already written.
func checkServeVal(idx int, val uint64, bound func(int) uint32) error {
	key := serveKey(idx)
	if uint32(val) != uint32(mix64(key)) || uint32(val>>32) > bound(idx) {
		return fmt.Errorf("key %d read value %#x, which no write produced", key, val)
	}
	return nil
}

// complete checks one answered request. Refusals (busy, no space) count as
// failed ops; a wrong answer or a broken connection is an error.
func (s *serveStream) complete(op serveOp, c *client.Call) error {
	s.ops++
	if c.Err != nil {
		if errors.Is(c.Err, client.ErrBusy) || errors.Is(c.Err, client.ErrNoSpace) {
			s.failed++
			return nil
		}
		return fmt.Errorf("%v of key %d: %w", op.kind, serveKey(op.idx), c.Err)
	}
	if c.Resp.Status != wire.StatusOK {
		return fmt.Errorf("%v of key %d: status %v", op.kind, serveKey(op.idx), c.Resp.Status)
	}
	bound := versionBound(s.peers)
	switch op.kind {
	case serveGet:
		return checkServeVal(op.idx, c.Resp.Val, bound)
	case servePut:
		s.puts++
		s.last[op.idx/2] = op.val
		return nil
	default:
		return checkScanPage(op.idx, s.keys, c.Resp.Pairs, bound)
	}
}

// checkScanPage verifies a 32-pair page starting at key index idx.
func checkScanPage(idx, keys int, pairs []wire.KV, bound func(int) uint32) error {
	if want := min(serveScanPage, keys-idx); len(pairs) != want {
		return fmt.Errorf("scan from key %d returned %d pairs, want %d", serveKey(idx), len(pairs), want)
	}
	for j, p := range pairs {
		if p.Key != serveKey(idx+j) {
			return fmt.Errorf("scan from key %d: pair %d has key %d, want %d", serveKey(idx), j, p.Key, serveKey(idx+j))
		}
		if err := checkServeVal(idx+j, p.Val, bound); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop keeps serveWindow requests in flight until the deadline (or,
// when traced, until maxTracedOps requests), then drains.
func (s *serveStream) closedLoop(deadline time.Time) error {
	type slot struct {
		op  serveOp
		c   *client.Call
		t0  time.Time
		req uint64
	}
	ring := make([]slot, serveWindow)
	issued, done := 0, 0
	launch := func(i int) {
		op := s.gen.next()
		s.seq++
		ring[i] = slot{op: op, t0: time.Now(), req: uint64(s.id)<<40 | s.seq}
		ring[i].c = s.issue(op)
		issued++
	}
	for i := range ring {
		launch(i)
	}
	stop := false
	for done < issued {
		i := done % serveWindow
		sl := ring[i]
		sl.c.Wait()
		t1 := time.Now()
		s.ser.add(t1, -1)
		if s.tr != nil {
			id := s.tr.add("serve.call", 0, sl.req, sl.t0, t1)
			s.traced = append(s.traced, tracedServeOp{op: sl.op, req: sl.req, call: id})
		}
		if err := s.complete(sl.op, sl.c); err != nil {
			return err
		}
		done++
		if !stop && (t1.After(deadline) || (s.tr != nil && issued >= maxTracedOps)) {
			stop = true
		}
		if !stop {
			launch(i)
		}
	}
	return nil
}

// openLoop sends at a fixed rate from start+offset until end and times
// every request from its scheduled send time. The stream's goroutine only
// sends; a collector goroutine stamps completions as they arrive, in send
// order (a connection answers in order unless a batch is steered, so a
// stamp is late at most by the wait for an earlier request).
func (s *serveStream) openLoop(start, end time.Time, offset, interval time.Duration) error {
	type pending struct {
		op  serveOp
		c   *client.Call
		due time.Time
	}
	// Sized for a second of sends at the offered rate: a backlog that
	// fills it makes the sender wait, which the lateness check reports.
	sent := make(chan pending, time.Second/interval)
	collected := make(chan error, 1)
	go func() {
		var err error
		for p := range sent {
			<-p.c.Done()
			done := time.Now()
			if err != nil {
				continue
			}
			s.ser.add(p.due, done.Sub(p.due))
			if !done.After(end) {
				s.achieved++
			}
			err = s.complete(p.op, p.c)
		}
		collected <- err
	}()
	for i := 0; ; i++ {
		due := start.Add(offset + time.Duration(i)*interval)
		if !due.Before(end) {
			break
		}
		now := time.Now()
		if now.Before(due) {
			time.Sleep(due.Sub(now))
			now = time.Now()
		}
		s.late = append(s.late, now.Sub(due))
		op := s.gen.next()
		s.seq++
		sent <- pending{op: op, c: s.issue(op), due: due}
	}
	close(sent)
	return <-collected
}

// runStreams runs fn on every stream concurrently and returns the elapsed
// wall time and the first error.
func runStreams(streams []*serveStream, fn func(*serveStream) error) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	t0 := time.Now()
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(s)
		}()
	}
	wg.Wait()
	return time.Since(t0), errors.Join(errs...)
}

func streamSeries(streams []*serveStream) []*series {
	ss := make([]*series, len(streams))
	for i, s := range streams {
		ss[i] = s.ser
	}
	return ss
}

func runServeRead(o runOpts) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	var st *store.Store
	var sys *serveSys
	var setups []float64
	for k := 0; k < o.size.setups; k++ {
		settle()
		t0 := time.Now()
		var err error
		if st, err = openServeStore(o.size.serveKeys); err != nil {
			return nil, err
		}
		if sys, err = startServe(st, serveStreams); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < o.size.setups-1 {
			if err := sys.stop(); err != nil {
				return nil, err
			}
			st.Close()
		}
	}
	pmBase := st.Stats()
	vlBase := st.ValueStats()
	srvBase := sys.srv.Stats()
	conns, err := streamConns(sys.pool, serveStreams)
	if err != nil {
		return nil, err
	}
	streams := newServeStreams(o.seed, o.size.serveKeys, conns)
	half := o.seconds / 2

	// Phase 1: closed loop, untraced.
	settle()
	start := time.Now()
	el, err := runStreams(streams, func(s *serveStream) error {
		s.ser = newSeries(start, start.Add(half), serveWin)
		return s.closedLoop(start.Add(half))
	})
	if err != nil {
		return nil, err
	}
	closedOps := sumOf(streams, func(s *serveStream) int64 { return s.ops })
	tput := mergeSeries(streamSeries(streams)...).rate() / 1000
	res.note("closed loop: %d ops in %.3fs, %d streams x window %d", closedOps, el.Seconds(), serveStreams, serveWindow)

	var tracers []*tracer
	measured := el
	if o.trace {
		// Phase 2 (traced run): the same closed loop with spans on.
		tracers = newTracers(2 * serveStreams)
		for i, s := range streams {
			s.tr = tracers[i]
		}
		settle()
		start := time.Now()
		el2, err := runStreams(streams, func(s *serveStream) error {
			s.ser = newSeries(start, start.Add(half), serveWin)
			return s.closedLoop(start.Add(half))
		})
		if err != nil {
			return nil, err
		}
		measured += el2
		tracedOps := sumOf(streams, func(s *serveStream) int64 { return s.ops }) - closedOps
		res.metrics["trace.overhead_frac"] = overhead(res, closedOps, el, tracedOps, el2)
	} else {
		// Phase 2: open loop at the fixed offered rate.
		rate := o.size.serveRate
		interval := time.Second * serveStreams / time.Duration(rate)
		settle()
		start := time.Now().Add(time.Millisecond)
		end := start.Add(half)
		el2, err := runStreams(streams, func(s *serveStream) error {
			s.ser = newSeries(start, end, serveWin)
			offset := interval * time.Duration(s.id) / serveStreams
			return s.openLoop(start, end, offset, interval)
		})
		if err != nil {
			return nil, err
		}
		measured += el2
		var late []time.Duration
		for _, s := range streams {
			late = append(late, s.late...)
		}
		achieved := float64(sumOf(streams, func(s *serveStream) int64 { return s.achieved })) / half.Seconds()
		res.note("open loop: offered %d ops/s, achieved %.1f ops/s (%.4f), generator late p50 %.1fus p99 %.1fus over %d sends",
			rate, achieved, achieved/float64(rate), us(quantile(late, 0.5)), us(quantile(late, 0.99)), len(late))
		if achieved < serveMinAchieved*float64(rate) {
			return nil, fmt.Errorf("open loop invalid: achieved %.1f ops/s of %d offered (backlog growing); latency not reported",
				achieved, rate)
		}
		latencyMetrics(res, mergeSeries(streamSeries(streams)...))
	}
	srvStats := sys.srv.Stats()
	if err := sys.stop(); err != nil {
		return nil, err
	}
	pm := statsDelta(st.Stats(), pmBase)
	vl := st.ValueStats()
	ops := sumOf(streams, func(s *serveStream) int64 { return s.ops })
	puts := sumOf(streams, func(s *serveStream) int64 { return s.puts })
	res.attempted = ops
	res.failed = sumOf(streams, func(s *serveStream) int64 { return s.failed })
	userBytes := float64(puts * 16)
	space := float64(spaceInUse(st)) / float64(o.size.serveKeys*16)

	// Recovery, then the read-back oracle through a fresh server.
	st, recovery, err := reopenCycles(st, serveStoreOpts(), recoveryRepeats)
	if err != nil {
		return nil, err
	}
	err = serveReadBack(st, streams, o.seed, o.size.serveKeys)
	st.Close()
	if err != nil {
		return nil, err
	}

	res.metrics["setup_s"] = median(setups)
	res.metrics["throughput_kops"] = tput
	res.metrics["pm_write_amp"] = float64(pm.FlushedLines*pmem.LineSize) / userBytes
	res.metrics["space_amp"] = space
	res.metrics["recovery_s"] = median(recovery)
	if !o.trace {
		return res, nil
	}

	lm := layerDefaults()
	lm["trace.overhead_frac"] = res.metrics["trace.overhead_frac"]
	d := func(a, b uint64) float64 { return float64(a - b) }
	sops := d(srvStats.Ops, srvBase.Ops)
	lm["wire.bytes_in_per_op"] = ratio(d(srvStats.BytesIn, srvBase.BytesIn), sops)
	lm["wire.bytes_out_per_op"] = ratio(d(srvStats.BytesOut, srvBase.BytesOut), sops)
	lm["server.reqs_per_read_batch"] = ratio(sops, d(srvStats.ReadBatches, srvBase.ReadBatches))
	lm["server.resps_per_flush"] = ratio(sops, d(srvStats.Flushes, srvBase.Flushes))
	lm["server.steered_frac"] = ratio(d(srvStats.SteeredOps, srvBase.SteeredOps), sops)
	lm["server.shed_frac"] = ratio(d(srvStats.Shed, srvBase.Shed), sops)
	vlogLayer(lm, vl, vlBase, userBytes)
	pmemLayer(lm, pm, ops, measured)
	if err := serveReplay(o, streams, tracers[serveStreams:]); err != nil {
		return nil, err
	}
	lm["serve.call_us_p50"] = us(quantile(durations(tracers, "serve.call"), 0.5))
	lm["serve.self_us_p50"] = us(quantile(selfTimes(tracers, []string{"serve.call"},
		[]string{"store.get", "store.put", "store.scan"}), 0.5))
	codec := durations(tracers, "wire.codec")
	var codecSum time.Duration
	for _, c := range codec {
		codecSum += c
	}
	lm["wire.codec_ns_per_op"] = ratio(ns(codecSum), float64(len(codec)))
	lm["store.get_ns"] = ns(quantile(durations(tracers, "store.get"), 0.5))
	lm["store.put_ns"] = ns(quantile(durations(tracers, "store.put"), 0.5))
	lm["store.scan_page_us"] = us(quantile(durations(tracers, "store.scan"), 0.5))
	lm["store.self_ns"] = ns(quantile(selfTimes(tracers, []string{"store.get", "store.put"},
		[]string{"core.get", "core.exchange"}), 0.5))
	lm["core.get_ns"] = ns(quantile(durations(tracers, "core.get"), 0.5))
	lm["core.exchange_ns"] = ns(quantile(durations(tracers, "core.exchange"), 0.5))
	res.metrics = lm
	return res, writeTrace(o.traceDir, fmt.Sprintf("serve-read-seed%d", o.seed), tracers)
}

// serveReadBack reads back, through a fresh server, every key a stream
// wrote and a seeded sample of preloaded keys, and checks each against the
// model.
func serveReadBack(st *store.Store, streams []*serveStream, seed int64, keys int) error {
	sys, err := startServe(st, 1)
	if err != nil {
		return err
	}
	want := func(idx int) uint64 {
		if v := streams[idx%2].last[idx/2]; v != 0 {
			return v
		}
		return serveVal(serveKey(idx), 0)
	}
	var idxs []int
	for i := 0; i < keys; i++ {
		if streams[i%2].last[i/2] != 0 {
			idxs = append(idxs, i)
		}
	}
	rng := streamRand(seed, 99)
	for i := 0; i < serveSample; i++ {
		idxs = append(idxs, rng.Intn(keys))
	}
	conn := sys.pool.Conn()
	check := func(idx int, c *client.Call) error {
		if err := c.Wait(); err != nil {
			return fmt.Errorf("read back key %d: %w", serveKey(idx), err)
		}
		if c.Resp.Status != wire.StatusOK || c.Resp.Val != want(idx) {
			return fmt.Errorf("read back key %d: got %#x (status %v), want %#x",
				serveKey(idx), c.Resp.Val, c.Resp.Status, want(idx))
		}
		return nil
	}
	var rerr error
	calls := make([]*client.Call, 0, serveWindow)
	for n, idx := range idxs {
		calls = append(calls, conn.GetAsync(serveKey(idx)))
		if len(calls) == serveWindow || n == len(idxs)-1 {
			base := n + 1 - len(calls)
			for j, c := range calls {
				if err := check(idxs[base+j], c); err != nil && rerr == nil {
					rerr = err
				}
			}
			calls = calls[:0]
		}
	}
	return errors.Join(rerr, sys.stop())
}

// serveReplay replays each stream's traced requests on the inner layers:
// a store.Session over an identically preloaded store (with the wire codec
// timed on the same requests and answers), then a bare FAST+FAIR index per
// shard holding the same keys. Spans go to the given tracers.
func serveReplay(o runOpts, streams []*serveStream, ts []*tracer) error {
	st, err := openServeStore(o.size.serveKeys)
	if err != nil {
		return err
	}
	bound := versionBound(streams[0].peers)
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = replayStore(st, s, ts[i], o.size.serveKeys, bound)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.Close()
		return err
	}
	shardOf := func(k uint64) int { return st.ShardFor(k) }
	st.Close()

	ixs := make([]index.Index, serveShards)
	for i := range ixs {
		ix, _, err := index.New(index.FastFair, pmem.Config{Size: serveShardSize}, index.Options{})
		if err != nil {
			return fmt.Errorf("core index: %w", err)
		}
		defer ix.Close()
		ixs[i] = ix
	}
	for i := range errs {
		errs[i] = nil
	}
	for g := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := make([]*pmem.Thread, len(ixs))
			for i, ix := range ixs {
				th[i] = ix.Pool().NewThread()
			}
			// Each loader fills the shards of its own parity.
			for i := 0; i < o.size.serveKeys; i++ {
				k := serveKey(i)
				if sh := shardOf(k); sh%len(streams) == g {
					if err := ixs[sh].Insert(th[sh], k, serveVal(k, 0)); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("core load: %w", err)
	}
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = replayCore(ixs, shardOf, s, ts[i])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func replayStore(st *store.Store, s *serveStream, tr *tracer, keys int, bound func(int) uint32) error {
	ss := st.NewSession()
	defer ss.Close()
	var buf []byte
	var pairs []wire.KV
	for j := range s.traced {
		t := &s.traced[j]
		k := serveKey(t.op.idx)
		req := wire.Request{ID: t.req, Key: k}
		resp := wire.Response{ID: t.req, Status: wire.StatusOK}
		var (
			name string
			v    uint64
			ok   bool
			page []store.KV
			err  error
			t0   = time.Now()
		)
		switch t.op.kind {
		case serveGet:
			name = "store.get"
			v, ok, err = ss.Get(k)
		case servePut:
			name, ok = "store.put", true
			err = ss.Put(k, t.op.val)
		default:
			name, ok = "store.scan", true
			page, err = ss.ScanLimit(k, math.MaxUint64, serveScanPage)
		}
		t1 := time.Now()
		if err != nil || !ok {
			return fmt.Errorf("store replay %s of key %d: found %v, %v", name, k, ok, err)
		}
		t.storeSpan = tr.add(name, t.call, t.req, t0, t1)
		switch t.op.kind {
		case serveGet:
			if err := checkServeVal(t.op.idx, v, bound); err != nil {
				return err
			}
			req.Op, resp.Op, resp.Val = wire.OpGet, wire.OpGet, v
		case servePut:
			req.Op, resp.Op, req.Val = wire.OpPut, wire.OpPut, t.op.val
		default:
			pairs = pairs[:0]
			for _, p := range page {
				pairs = append(pairs, wire.KV{Key: p.Key, Val: p.Val})
			}
			if err := checkScanPage(t.op.idx, keys, pairs, bound); err != nil {
				return err
			}
			req.Op, resp.Op = wire.OpScan, wire.OpScan
			req.Lo, req.Hi, req.Max = k, math.MaxUint64, serveScanPage
			resp.Pairs = pairs
		}

		// The wire codec on the same request and answer: encode and
		// decode both frames, as client and server each do once.
		c0 := time.Now()
		if buf, err = wire.AppendRequest(buf[:0], &req); err != nil {
			return err
		}
		if _, err = wire.DecodeRequest(buf[wire.FrameHdrSize:]); err != nil {
			return err
		}
		if buf, err = wire.AppendResponse(buf[:0], &resp); err != nil {
			return err
		}
		if _, err = wire.DecodeResponse(buf[wire.FrameHdrSize:]); err != nil {
			return err
		}
		tr.add("wire.codec", t.call, t.req, c0, time.Now())
	}
	return nil
}

func replayCore(ixs []index.Index, shardOf func(uint64) int, s *serveStream, tr *tracer) error {
	th := make([]*pmem.Thread, len(ixs))
	for i, ix := range ixs {
		th[i] = ix.Pool().NewThread()
	}
	for _, t := range s.traced {
		k := serveKey(t.op.idx)
		t0 := time.Now()
		var name string
		switch t.op.kind {
		case serveGet:
			name = "core.get"
			sh := shardOf(k)
			if _, ok := ixs[sh].Get(th[sh], k); !ok {
				return fmt.Errorf("core replay get %d: missing", k)
			}
		case servePut:
			name = "core.exchange"
			sh := shardOf(k)
			if _, _, err := index.Exchange(ixs[sh], th[sh], k, t.op.val); err != nil {
				return fmt.Errorf("core replay exchange %d: %w", k, err)
			}
		default:
			// A store page reads up to a page from every shard.
			name = "core.scan"
			for i, ix := range ixs {
				n := 0
				ix.Scan(th[i], k, math.MaxUint64, func(_, _ uint64) bool {
					n++
					return n < serveScanPage
				})
			}
		}
		tr.add(name, t.storeSpan, t.req, t0, time.Now())
	}
	return nil
}
