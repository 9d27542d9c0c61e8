package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/store"
	"repro/wire"
)

const ioBufSize = 64 << 10

// conn is one accepted connection on the steered pipeline. The handler
// goroutine runs the frame reader; the response writer is spawned from it;
// request execution happens either inline on the reader (small batches,
// nothing steered) or on the connection's home worker (see steer.go).
type conn struct {
	srv      *Server
	nc       net.Conn
	home     int           // ring index every steered batch goes to
	draining chan struct{} // closed by beginDrain
	drainSet sync.Once

	// The flow-control trio. credits is a counting semaphore sized
	// Options.MaxInflight and pre-filled: the reader takes one credit per
	// request before dispatching it, the writer returns one per response
	// it has finished with (encoded or dropped). respCh has the same
	// capacity, so at most MaxInflight responses can ever be queued and a
	// send into respCh never blocks — workers cannot be stalled by a slow
	// client. inflight counts dispatched-but-unwritten requests; the
	// writer uses it to tell "the pipe is empty, flush now" from "more
	// responses are coming, coalesce".
	credits  chan struct{}
	respCh   chan svResp
	inflight atomic.Int64

	// steered counts this connection's requests handed to its home ring
	// whose responses are not yet queued. The reader's inline fast path
	// requires it to be zero, which preserves execution order across the
	// inline/steered boundary.
	steered atomic.Int64

	// sampler drives stage-latency sampling on the inline path. Only
	// the reader goroutine touches it (inline execution runs there);
	// steered execution uses the worker's own sampler.
	sampler metrics.Sampler

	// issued is the reader's final request count, published (then
	// readerDone closed) when the reader exits so the writer knows how
	// many responses it still owes. -1 until the reader is done.
	issued     atomic.Int64
	readerDone chan struct{}

	// scanBufs recycles Scan response pair buffers between serve (fills
	// one per Scan) and the writer (returns it after encoding), keeping
	// the steady-state Scan path allocation-free. A channel rather than a
	// sync.Pool: handing a slice through a buffered channel boxes
	// nothing. varBufs is the same discipline for the byte-key ops' value
	// arenas and pair buffers.
	scanBufs chan []wire.KV
	varBufs  chan *varlenBuf
}

// varlenBuf is the pooled backing store of one variable-length response:
// GetK borrows the arena for its value bytes; ScanK additionally borrows
// the pair slice (every Key and Val a subslice of the arena) and the
// per-pair end offsets — two per pair, key end and value end — used to
// rebuild those subslices after the arena stops growing.
type varlenBuf struct {
	kpairs []wire.KKV
	arena  []byte
	ends   []int
}

// svResp pairs a wire response with the pooled buffers it borrows, so the
// writer can hand them back once the response is encoded (or dropped on a
// broken connection), and the mnow() time the response became ready, so
// the writer can charge the flush-wait stage at the write syscall. A zero
// served (protocol-error responses, which never executed) records nothing.
type svResp struct {
	wire.Response
	vb     *varlenBuf
	served int64
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv:        s,
		nc:         nc,
		home:       int(s.nextHome.Add(1)-1) % s.opts.Workers,
		draining:   make(chan struct{}),
		credits:    make(chan struct{}, s.opts.MaxInflight),
		respCh:     make(chan svResp, s.opts.MaxInflight),
		readerDone: make(chan struct{}),
		scanBufs:   make(chan []wire.KV, 16),
		varBufs:    make(chan *varlenBuf, 16),
	}
	c.issued.Store(-1)
	for i := 0; i < s.opts.MaxInflight; i++ {
		c.credits <- struct{}{}
	}
	return c
}

// takeVarBuf fetches a recycled varlen buffer or makes a fresh one.
func (c *conn) takeVarBuf() *varlenBuf {
	select {
	case vb := <-c.varBufs:
		vb.kpairs = vb.kpairs[:0]
		vb.arena = vb.arena[:0]
		vb.ends = vb.ends[:0]
		return vb
	default:
		return &varlenBuf{}
	}
}

// beginDrain stops the reader: it marks the connection draining and kicks
// the blocked Read with an immediate deadline. Requests already queued keep
// flowing to the workers and their responses still go out (only the read
// side is deadlined).
func (c *conn) beginDrain() {
	c.drainSet.Do(func() {
		close(c.draining)
		c.nc.SetReadDeadline(time.Now())
	})
}

func (c *conn) isDraining() bool {
	select {
	case <-c.draining:
		return true
	default:
		return false
	}
}

// handle runs the connection to completion: reader (this goroutine) →
// inline serve or home ring → response queue → writer. The writer is
// joined before the socket closes, and it only exits once it has written
// (or dropped) a response for every request the reader issued — so every
// accepted request is answered even when execution is spread across shared
// workers.
func (c *conn) handle() {
	s := c.srv
	defer s.wg.Done()
	defer s.dropConn(c)
	s.connsTotal.Add(1)
	s.connsLive.Add(1)
	defer s.connsLive.Add(-1)

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop()
	}()

	issued := c.readLoop()

	c.issued.Store(int64(issued))
	close(c.readerDone)
	<-writerDone
	c.nc.Close()
}

// readLoop ingests frames until EOF, error, or drain, and returns how many
// requests it dispatched. Each wakeup decodes every complete frame already
// buffered (up to maxIngest) into one batch, then dispatches the batch as
// a unit: inline on this goroutine when it is small and nothing from this
// connection is steered, otherwise as one slab handed to the home ring. A
// malformed frame gets a best-effort error response (when the id survived
// decoding) and ends the connection: framing is lost, nothing after it can
// be trusted.
func (c *conn) readLoop() (issued int) {
	s := c.srv
	br := bufio.NewReaderSize(c.nc, ioBufSize)
	ss := s.st.NewSession()
	defer ss.Close()
	var scratch []byte
	var batch []wire.Request
	dispatch := func() {
		if len(batch) == 0 {
			return
		}
		// Credits for every batched request are already held (taken as
		// each frame was decoded), so the responses always fit respCh.
		s.readBatches.Add(1)
		s.met.readBatch.Record(int64(len(batch)))
		c.inflight.Add(int64(len(batch)))
		issued += len(batch)
		// t0 starts every batched request's queue-wait clock: inline
		// execution begins immediately (queue wait ~0), a steered batch
		// waits in its home ring.
		t0 := s.mnow()
		if s.opts.InlineBatch >= 0 && len(batch) <= s.opts.InlineBatch &&
			c.steered.Load() == 0 {
			s.inlineOps.Add(uint64(len(batch)))
			for i := range batch {
				c.respCh <- c.executeOne(ss, &batch[i], t0, c.home, &c.sampler)
			}
		} else {
			s.steeredOps.Add(uint64(len(batch)))
			c.steered.Add(int64(len(batch)))
			slab := append(s.takeSlab(), batch...)
			s.rings[c.home] <- task{c: c, reqs: slab, t0: t0}
		}
		batch = batch[:0]
	}
	for {
		// First frame of the wakeup: a blocking read, bounded by the idle
		// timeout when one is set. beginDrain may race this and must win:
		// re-checking draining after arming the idle deadline guarantees
		// the drain's immediate deadline is never overwritten for longer
		// than one check.
		if d := s.opts.IdleTimeout; d > 0 && !c.isDraining() {
			c.nc.SetReadDeadline(time.Now().Add(d))
			if c.isDraining() {
				c.nc.SetReadDeadline(time.Now())
			}
		}
		body, err := wire.ReadFrame(br, s.opts.MaxFrame, scratch)
		if err != nil {
			c.noteReadEnd(err)
			return issued
		}
		for {
			s.bytesIn.Add(uint64(wire.FrameHdrSize + len(body)))
			req, derr := wire.DecodeRequest(body)
			if derr != nil {
				// Framing is lost; answer what decoded, then the error,
				// then hang up. dispatch-before-protoErr keeps the
				// credit wait deadlock-free (see below).
				s.logf("server: %s: %v", c.nc.RemoteAddr(), derr)
				dispatch()
				c.protoErr(body, derr, &issued)
				return issued
			}
			scratch = body[:0]
			// One credit per request, taken before it joins the batch.
			// If none is free, dispatch what we have first: then every
			// held credit belongs to a dispatched request, whose
			// response must eventually hand the credit back — so the
			// blocking take below cannot deadlock, and a full window
			// means this reader (alone) stalls until its client drains.
			select {
			case <-c.credits:
			default:
				dispatch()
				<-c.credits
			}
			// Global admission: past Options.MaxServerInflight the request
			// is shed with StatusBusy instead of joining the batch. The
			// credit just taken stays charged to the shed response, so the
			// writer's accounting is identical either way.
			if !s.tryAdmit() {
				c.shed(&req, &issued)
			} else {
				batch = append(batch, req)
			}
			if len(batch) >= maxIngest || !wire.FrameBuffered(br, s.opts.MaxFrame) {
				break
			}
			if body, err = wire.ReadFrame(br, s.opts.MaxFrame, scratch); err != nil {
				// FrameBuffered said a whole frame (or an oversized
				// length) was buffered, so this is a reject, not a
				// blocked read; dispatch what we have and die.
				c.noteReadEnd(err)
				dispatch()
				return issued
			}
		}
		dispatch()
	}
}

// noteReadEnd classifies why the reader stopped, for the failure counters:
// a drain or a clean client EOF is nobody's fault, an idle-timeout expiry
// counts in idleCloses, and anything else — resets, frames torn mid-read,
// checksum failures — counts in resets.
func (c *conn) noteReadEnd(err error) {
	s := c.srv
	switch {
	case c.isDraining() || errors.Is(err, net.ErrClosed):
		// Shutdown kicked the read; not a failure.
	case errors.Is(err, io.EOF):
		// Clean close: the client finished between frames.
	case errors.Is(err, os.ErrDeadlineExceeded):
		s.idleCloses.Add(1)
		s.logf("server: %s: closing idle connection (no frame in %v)",
			c.nc.RemoteAddr(), s.opts.IdleTimeout)
	default:
		s.resets.Add(1)
		s.logf("server: %s: read: %v", c.nc.RemoteAddr(), err)
	}
}

// shed answers one admitted-over-cap request with StatusBusy without
// executing it. The caller already holds the request's credit; like
// protoErr, the response flows through respCh so the writer's
// issued/handled accounting stays exact.
func (c *conn) shed(req *wire.Request, issued *int) {
	s := c.srv
	s.ops.Add(1)
	s.shed.Add(1)
	s.met.reqs[opSlot(req.Op)].Inc(c.home)
	c.inflight.Add(1)
	*issued++
	c.respCh <- svResp{Response: wire.Response{
		ID: req.ID, Op: req.Op, Status: wire.StatusBusy,
		Msg: "server: overloaded, retry later",
	}}
}

// protoErr queues the error response for an undecodable frame, charging it
// a credit like any request so the writer's accounting stays exact.
func (c *conn) protoErr(body []byte, err error, issued *int) {
	s := c.srv
	s.ops.Add(1)
	s.errs.Add(1)
	s.met.reqs[0].Inc(c.home)
	s.met.errs[0].Inc(c.home)
	s.resets.Add(1) // the connection is cut right after this response
	resp := wire.Response{Status: wire.StatusErr, Msg: err.Error()}
	if len(body) >= 8 {
		resp.ID = binary.BigEndian.Uint64(body)
	}
	<-c.credits
	c.inflight.Add(1)
	*issued++
	c.respCh <- svResp{Response: resp}
}

// writeLoop coalesces responses into a slab and flushes it with single
// Write calls under an explicit policy: flush when the slab reaches
// Options.FlushBytes, when it holds Options.FlushPending responses, when
// nothing is left in flight (a waiting client gets its answer
// immediately), or when responses are in flight but none arrives within
// Options.FlushDelay (bounding coalescing-added latency). After a write
// error it keeps draining — dropping responses, recycling their buffers,
// returning their credits — until it has accounted for every request the
// reader issued, so workers and the reader can never deadlock on a dead
// connection.
func (c *conn) writeLoop() {
	s := c.srv
	opts := &s.opts
	var slab []byte
	var timer *time.Timer
	// pendMeta mirrors the slab's responses (op slot + ready time) so a
	// successful flush can charge each one's flush-wait stage; the slice is
	// reused across flushes.
	type respMeta struct {
		slot   uint8
		served int64
	}
	var pendMeta []respMeta
	pend := 0
	broken := false
	flush := func() {
		if len(slab) > 0 && !broken {
			if _, err := c.nc.Write(slab); err != nil {
				broken = true
			} else {
				s.bytesOut.Add(uint64(len(slab)))
				s.flushes.Add(1)
				s.met.flushBytes.Record(int64(len(slab)))
				s.met.flushPend.Record(int64(pend))
				now := s.mnow()
				for _, pm := range pendMeta {
					s.met.flush[pm.slot].Record(now - pm.served)
				}
			}
		}
		slab = slab[:0]
		pendMeta = pendMeta[:0]
		pend = 0
	}
	var handled, issued int64 = 0, -1
	for issued < 0 || handled < issued {
		var resp svResp
		if issued < 0 {
			if len(slab) == 0 {
				select {
				case resp = <-c.respCh:
				case <-c.readerDone:
					issued = c.issued.Load()
					continue
				}
			} else {
				select {
				case resp = <-c.respCh:
				default:
					if c.inflight.Load() == 0 {
						flush()
						continue
					}
					if timer == nil {
						timer = time.NewTimer(opts.FlushDelay)
					} else {
						timer.Reset(opts.FlushDelay)
					}
					select {
					case resp = <-c.respCh:
						timer.Stop()
					case <-timer.C:
						flush()
						continue
					case <-c.readerDone:
						timer.Stop()
						issued = c.issued.Load()
						continue
					}
				}
			}
		} else {
			// The reader is gone and owes us issued-handled more
			// responses; nothing new can arrive, so flush before any
			// blocking wait.
			select {
			case resp = <-c.respCh:
			default:
				flush()
				resp = <-c.respCh
			}
		}
		handled++
		c.inflight.Add(-1)
		if !broken {
			slab = wire.MustAppendResponse(slab, &resp.Response)
			pend++
			if resp.served != 0 {
				pendMeta = append(pendMeta, respMeta{uint8(opSlot(resp.Op)), resp.served})
			}
		}
		c.recycleRespBufs(&resp)
		c.credits <- struct{}{}
		if len(slab) >= opts.FlushBytes || pend >= opts.FlushPending {
			flush()
		}
	}
	flush()
}

// recycleRespBufs returns a response's pooled buffers — the Scan pair
// buffer and/or the byte-key buffer — to the connection's recycle channels
// once the response no longer needs them (encoded or dropped). If a channel
// is full the buffer is simply left to the GC.
func (c *conn) recycleRespBufs(resp *svResp) {
	if resp.Op == wire.OpScan && resp.Pairs != nil {
		select {
		case c.scanBufs <- resp.Pairs[:0]:
		default:
		}
		resp.Pairs = nil
	}
	if resp.vb != nil {
		select {
		case c.varBufs <- resp.vb:
		default:
		}
		resp.vb = nil
		resp.VVal, resp.KPairs = nil, nil
	}
}

// latencySampleMask sets the server's stage-latency sampling probability
// to one in (mask+1) requests; must be a power of two minus one. Two clock
// reads cost ~100ns on some hosts, so sampling keeps the pipeline's
// per-request overhead to one xorshift step and a branch. Setting
// Options.SlowOpThreshold forces every request onto the clocked path —
// the slow-op log must not sample — at that clocking cost.
var latencySampleMask uint32 = 7

// executeOne runs one request through serve with the stage instrumentation
// around it: the queue-wait histogram (batch ingest t0 to execution start),
// the execute histogram, the per-class whole-request histogram backing the
// wire Stats latency summary, and the slow-op check. Stage latencies are
// sampled with probability 1/(latencySampleMask+1) per request via smp, a
// sampler owned by the calling executor goroutine (the reader's on the
// inline path, the worker's on the steered path), so no periodic request
// mix can alias with it. wid hints the striped counters. A sampled
// response carries its ready time so the writer can charge the flush-wait
// stage; an unsampled one carries zero and the writer skips it.
func (c *conn) executeOne(ss *store.Session, req *wire.Request, t0 int64, wid int, smp *metrics.Sampler) svResp {
	s := c.srv
	if !smp.Sample(latencySampleMask) && s.opts.SlowOpThreshold == 0 {
		out := c.serve(ss, req, wid)
		s.releaseAdmit()
		return out
	}
	start := s.mnow()
	out := c.serve(ss, req, wid)
	s.releaseAdmit()
	now := s.mnow()
	slot := opSlot(req.Op)
	m := s.met
	m.queue[slot].Record(start - t0)
	m.exec[slot].Record(now - start)
	m.class[opClasses[slot]].Record(now - t0)
	if thr := int64(s.opts.SlowOpThreshold); thr > 0 && now-t0 >= thr {
		s.noteSlow(req, slot, start-t0, now-start, now)
	}
	if now == 0 {
		now = 1 // mnow()==0 only at the epoch instant; keep served != 0
	}
	out.served = now
	return out
}

// serve executes one request against the given session and shapes the
// response. Store-level failures become StatusErr; a closed store (the
// server lost a race with Store.Close) becomes StatusClosed; a Txn commit
// that crossed its commit point but failed to apply becomes
// StatusTxnIncomplete so clients can tell "committed, pending replay"
// from "refused, nothing applied". Responses that
// borrow pooled buffers (Scan pairs, byte-key values) carry them in the
// svResp wrapper for the writer to recycle. wid hints the per-opcode
// striped counters.
func (c *conn) serve(ss *store.Session, req *wire.Request, wid int) svResp {
	s := c.srv
	s.ops.Add(1)
	slot := opSlot(req.Op)
	s.met.reqs[slot].Inc(wid)
	out := svResp{Response: wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}}
	resp := &out.Response
	fail := func(err error) svResp {
		s.errs.Add(1)
		s.met.errs[slot].Inc(wid)
		resp.Status = wire.StatusErr
		switch {
		case errors.Is(err, store.ErrClosed):
			resp.Status = wire.StatusClosed
		case errors.Is(err, store.ErrNoSpace):
			resp.Status = wire.StatusNoSpace
		case errors.Is(err, store.ErrTxnIncomplete):
			// The transaction reached its commit point: it is durable
			// and replays at the next reopen, but is not yet visible.
			// ErrReopenRequired (a later commit refused by the latch)
			// stays StatusErr — that one really did apply nothing.
			resp.Status = wire.StatusTxnIncomplete
		}
		resp.Msg = err.Error()
		resp.VVal, resp.KPairs = nil, nil
		return out
	}
	switch req.Op {
	case wire.OpGet:
		v, ok, err := ss.Get(req.Key)
		if err != nil {
			return fail(err)
		}
		if !ok {
			resp.Status = wire.StatusNotFound
			return out
		}
		resp.Val = v
	case wire.OpPut:
		if err := ss.Put(req.Key, req.Val); err != nil {
			return fail(err)
		}
	case wire.OpDelete:
		ok, err := ss.Delete(req.Key)
		if err != nil {
			return fail(err)
		}
		if !ok {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpPutBatch:
		pairs := make([]store.KV, len(req.Pairs))
		for i, kv := range req.Pairs {
			pairs[i] = store.KV{Key: kv.Key, Val: kv.Val}
		}
		if err := ss.PutBatch(pairs); err != nil {
			return fail(err)
		}
	case wire.OpScan:
		max := s.opts.MaxScan
		if req.Max != 0 && int(req.Max) < max {
			max = int(req.Max)
		}
		kvs, err := ss.ScanLimit(req.Lo, req.Hi, max)
		if err != nil {
			return fail(err)
		}
		var pairs []wire.KV
		select {
		case pairs = <-c.scanBufs:
			pairs = pairs[:0]
		default:
		}
		for _, kv := range kvs {
			pairs = append(pairs, wire.KV{Key: kv.Key, Val: kv.Val})
		}
		resp.Pairs = pairs
	case wire.OpGetK:
		vb := c.takeVarBuf()
		out.vb = vb
		val, ok, err := ss.GetKV(req.KKey, vb.arena[:0])
		if err != nil {
			return fail(err)
		}
		vb.arena = val
		if !ok {
			resp.Status = wire.StatusNotFound
			return out
		}
		resp.VVal = val
	case wire.OpPutK:
		if err := ss.PutKV(req.KKey, req.VVal); err != nil {
			return fail(err)
		}
	case wire.OpDeleteK:
		ok, err := ss.DeleteKV(req.KKey)
		if err != nil {
			return fail(err)
		}
		if !ok {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpScanK:
		max := s.opts.MaxScan
		if req.Max != 0 && int(req.Max) < max {
			max = int(req.Max)
		}
		vb := c.takeVarBuf()
		out.vb = vb
		// The response must stay under the frame cap: count bounded by
		// max, bytes bounded by a budget charging each pair's 6-byte
		// header (klen u16 + vlen u32) and its key bytes along with the
		// value; a pair that would overflow ends the page. The first pair
		// always fits: keys are capped at wire.MaxKey and stored values
		// at wire.MaxKValue = MaxFrame-2048.
		// Both key and value land in the arena; ends records two offsets
		// per pair so the subslices can be rebuilt once it stops growing.
		budget := int(wire.MaxFrame) - 64
		err := ss.ScanKV(req.KLo, req.KHi, max, func(k, v []byte) bool {
			used := len(vb.arena) + 6*len(vb.kpairs)
			if len(vb.kpairs) > 0 && used+6+len(k)+len(v) > budget {
				return false
			}
			vb.arena = append(vb.arena, k...)
			vb.ends = append(vb.ends, len(vb.arena))
			vb.arena = append(vb.arena, v...)
			vb.ends = append(vb.ends, len(vb.arena))
			vb.kpairs = append(vb.kpairs, wire.KKV{})
			return len(vb.kpairs) < max && len(vb.arena)+6*len(vb.kpairs) < budget
		})
		if err != nil {
			return fail(err)
		}
		start := 0
		for i := range vb.kpairs {
			ke, ve := vb.ends[2*i], vb.ends[2*i+1]
			vb.kpairs[i].Key = vb.arena[start:ke:ke]
			if ve > ke {
				vb.kpairs[i].Val = vb.arena[ke:ve:ve]
			}
			start = ve
		}
		resp.KPairs = vb.kpairs
	case wire.OpTxn:
		// The whole write-set commits atomically through the store's
		// redo-log protocol, on this executor's session (sessions are
		// per-goroutine, honoring Commit's single-goroutine contract).
		tx := ss.Begin()
		for i := range req.TxnOps {
			op := &req.TxnOps[i]
			var err error
			switch op.Kind {
			case wire.TxnPut:
				err = tx.Put(op.Key, op.Val)
			case wire.TxnDelete:
				err = tx.Delete(op.Key)
			case wire.TxnPutK:
				err = tx.PutKV(op.KKey, op.VVal)
			case wire.TxnDeleteK:
				err = tx.DeleteKV(op.KKey)
			default:
				err = fmt.Errorf("server: txn op %d has unknown kind %d", i, op.Kind)
			}
			if err != nil {
				tx.Rollback()
				return fail(err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fail(err)
		}
	case wire.OpStats:
		st := s.Stats()
		vs := s.st.ValueStats()
		sum := s.met.classSummary()
		resp.Stats = wire.Stats{
			Ops:           st.Ops,
			Errors:        st.Errors,
			BytesIn:       st.BytesIn,
			BytesOut:      st.BytesOut,
			ConnsLive:     st.ConnsLive,
			ConnsTotal:    st.ConnsTotal,
			VlogLive:      uint64(vs.Live),
			VlogGarbage:   uint64(vs.Garbage),
			VlogReclaimed: uint64(vs.Reclaimed),
			Shed:          st.Shed,
			IdleCloses:    st.IdleCloses,
			Resets:        st.Resets,
			ReadP50:       sum[0],
			ReadP99:       sum[1],
			WriteP50:      sum[2],
			WriteP99:      sum[3],
			ScanP50:       sum[4],
			ScanP99:       sum[5],
		}
	default:
		return fail(errors.New("server: unhandled opcode " + req.Op.String()))
	}
	return out
}
