package server

import (
	"repro/internal/metrics"
	"repro/wire"
)

// The steered data path: instead of per-connection worker pools, the server
// runs Options.Workers request workers for its whole lifetime, each owning
// one store.Session and draining one ring. Every connection is assigned a
// home ring at accept time (round-robin), and its reader hands whole
// ingest batches — []wire.Request slabs — to that ring, so many
// lightly-loaded connections aggregate onto the same hot workers and the
// per-request cost of the reader→worker handoff is amortized across a
// batch.
//
// Ordering invariant: a connection's requests execute in arrival order.
// The reader emits batches in order, a ring is FIFO, exactly one worker
// drains it, and the worker finishes a batch before taking the next — so
// steering preserves the per-connection (and therefore per-key) execution
// order. The reader's inline fast path keeps the same invariant by only
// executing a batch itself when the connection has zero steered requests
// outstanding (conn.steered, decremented by the worker only after the
// batch's last response is queued).
//
// Workers never block on a slow connection: respCh has space for every
// in-flight request by construction (see conn.credits), so a worker's send
// always finds room and a stalled client can only stall itself.
const (
	// ringDepth bounds the batches queued per worker. Readers block when a
	// ring fills; since workers never block, rings always drain.
	ringDepth = 256
	// maxIngest caps the requests decoded per reader wakeup, bounding the
	// slab a single connection can pin and keeping batch latency flat.
	maxIngest = 64
	// slabPoolSize bounds the recycled request slabs kept across batches.
	slabPoolSize = 64
)

// task is one connection's ingest batch, executed by its home worker. t0
// is the batch's ingest time on the server's monotonic clock; the gap to
// execution start is each request's queue-wait stage.
type task struct {
	c    *conn
	reqs []wire.Request
	t0   int64
}

// startWorkersLocked spins up the worker set and rings on first use.
// Callers hold s.mu and have already checked s.shutdown.
func (s *Server) startWorkersLocked() {
	if s.started {
		return
	}
	s.started = true
	s.rings = make([]chan task, s.opts.Workers)
	for i := range s.rings {
		s.rings[i] = make(chan task, ringDepth)
		s.workerWG.Add(1)
		go s.workerLoop(i, s.rings[i])
	}
}

// stopWorkers closes the rings and joins the workers. It must only run
// after every connection handler has exited (no reader can be mid-send),
// and it is idempotent so Shutdown and Close can both call it.
func (s *Server) stopWorkers() {
	s.mu.Lock()
	started := s.started
	s.started = false
	rings := s.rings
	s.mu.Unlock()
	if !started {
		return
	}
	for _, r := range rings {
		close(r)
	}
	s.workerWG.Wait()
}

// workerLoop drains one ring: execute the batch in order, queue each
// response on the owning connection (never blocking — see conn.credits),
// then release the batch's steered count and recycle the slab. wid is the
// worker's index, the stripe hint for the per-opcode counters.
func (s *Server) workerLoop(wid int, ring chan task) {
	defer s.workerWG.Done()
	ss := s.st.NewSession()
	defer ss.Close()
	var smp metrics.Sampler // this worker's stage-latency sampler
	for t := range ring {
		c := t.c
		for i := range t.reqs {
			c.respCh <- c.executeOne(ss, &t.reqs[i], t.t0, wid, &smp)
		}
		c.steered.Add(-int64(len(t.reqs)))
		s.putSlab(t.reqs)
	}
}

// takeSlab fetches a recycled request slab or makes a fresh one.
func (s *Server) takeSlab() []wire.Request {
	select {
	case slab := <-s.slabs:
		return slab[:0]
	default:
		return make([]wire.Request, 0, maxIngest)
	}
}

// putSlab recycles a drained slab. Requests can pin PutBatch pair slices
// and PutK keys and values, so the slab is cleared before pooling; a full pool just
// drops the slab to the GC.
func (s *Server) putSlab(slab []wire.Request) {
	clear(slab)
	select {
	case s.slabs <- slab[:0]:
	default:
	}
}
