package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/index"
	"repro/internal/pmem"
	"repro/store"
)

// kv-churn: the byte-key write path on emulated PM. Two sessions run a
// closed loop of PutKV/GetKV/DeleteKV over Zipf-chosen keys, so value-log
// appends, bucket rewrites and inline GC do the work.
const (
	churnShards  = 4
	churnStreams = 2
	churnKeyLen  = 24
	churnValLen  = 256
	// pmLatency is the emulated PM read and write latency of kv-churn and
	// tpcc-txn.
	pmLatency = 300 * time.Nanosecond
)

// churnStoreOpts sizes the shards so the loaded data fills about a quarter
// of the arena.
func churnStoreOpts(keys int) store.Options {
	live := int64(keys) * (churnKeyLen + churnValLen)
	return store.Options{
		Shards:    churnShards,
		ShardSize: max(4*live/churnShards, 4<<20),
		Latency:   store.LatencyOptions{Read: pmLatency, Write: pmLatency},
	}
}

// churnModel is the expected content of every key: the version of its
// value, or -1 once deleted. Each stream writes only the keys it owns.
type churnModel []int32

// loadChurn opens a store and loads every key at version 0, each stream
// loading the keys it owns on its own session.
func loadChurn(keys int) (*store.Store, churnModel, error) {
	st, err := store.Open(churnStoreOpts(keys))
	if err != nil {
		return nil, nil, fmt.Errorf("open store: %w", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, churnStreams)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss := st.NewSession()
			defer ss.Close()
			var kb, vb []byte
			for i := 0; i < keys; i++ {
				if churnOwner(i) != g {
					continue
				}
				kb, vb = churnKey(kb, i), churnVal(vb, i, 0, churnValLen)
				if err := ss.PutKV(kb, vb); err != nil {
					errs[g] = fmt.Errorf("load key %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, make(churnModel, keys), nil
}

// checkChurn reads every key back on a fresh session and compares it with
// the model.
func checkChurn(st *store.Store, model churnModel) error {
	ss := st.NewSession()
	defer ss.Close()
	var kb, want, got []byte
	for i, ver := range model {
		kb = churnKey(kb, i)
		var ok bool
		var err error
		got, ok, err = ss.GetKV(kb, got[:0])
		if err != nil {
			return fmt.Errorf("read back key %d: %w", i, err)
		}
		if ver < 0 {
			if ok {
				return fmt.Errorf("read back key %d: present after its delete", i)
			}
			continue
		}
		want = churnVal(want, i, uint32(ver), churnValLen)
		if !ok || !bytes.Equal(got, want) {
			return fmt.Errorf("read back key %d: found %v, value differs from version %d", i, ok, ver)
		}
	}
	return nil
}

// churnSpans names the store span of each op kind.
var churnSpans = [...]string{churnGet: "store.getkv", churnPut: "store.putkv", churnDelete: "store.deletekv"}

// tracedChurnOp is one traced op, kept for the core replay.
type tracedChurnOp struct {
	op        churnOp
	req, span uint64
}

type churnStream struct {
	id     int
	gen    *churnGen
	model  churnModel
	ss     *store.Session
	seq    uint64
	ops    int64
	failed int64
	// userBytes counts key+value bytes of acknowledged writes (key bytes
	// only for deletes).
	userBytes int64
	ser       *series
	tr        *tracer
	traced    []tracedChurnOp
	kb, vb    []byte
	got       []byte
}

// run drives the closed loop until the deadline or, when traced, until
// maxTracedOps ops.
func (c *churnStream) run(deadline time.Time) error {
	for n := 0; c.tr == nil || n < maxTracedOps; n++ {
		op := c.gen.next()
		c.kb = churnKey(c.kb, op.idx)
		if op.kind == churnPut {
			c.vb = churnVal(c.vb, op.idx, op.ver, churnValLen)
		}
		var (
			ok  bool
			err error
			t0  = time.Now()
		)
		switch op.kind {
		case churnGet:
			c.got, ok, err = c.ss.GetKV(c.kb, c.got[:0])
		case churnPut:
			err = c.ss.PutKV(c.kb, c.vb)
		default:
			ok, err = c.ss.DeleteKV(c.kb)
		}
		t1 := time.Now()
		c.ops++
		c.seq++
		c.ser.add(t1, t1.Sub(t0))
		if c.tr != nil {
			req := uint64(c.id)<<40 | c.seq
			id := c.tr.add(churnSpans[op.kind], 0, req, t0, t1)
			c.traced = append(c.traced, tracedChurnOp{op: op, req: req, span: id})
		}
		if err := c.check(op, ok, err); err != nil {
			return err
		}
		if t1.After(deadline) {
			break
		}
	}
	return nil
}

// check verifies one answer against the model and applies the op to it.
func (c *churnStream) check(op churnOp, ok bool, err error) error {
	if err != nil {
		if errors.Is(err, store.ErrNoSpace) {
			c.failed++
			return nil
		}
		return fmt.Errorf("%v of key %d: %w", op.kind, op.idx, err)
	}
	ver := c.model[op.idx]
	switch op.kind {
	case churnGet:
		if ver < 0 {
			if ok {
				return fmt.Errorf("getkv of key %d: present after its delete", op.idx)
			}
			return nil
		}
		if !ok || !bytes.Equal(c.got, churnVal(c.vb, op.idx, uint32(ver), churnValLen)) {
			return fmt.Errorf("getkv of key %d: found %v, value differs from version %d", op.idx, ok, ver)
		}
	case churnPut:
		c.model[op.idx] = int32(op.ver)
		c.userBytes += churnKeyLen + churnValLen
	default:
		if ok != (ver >= 0) {
			return fmt.Errorf("deletekv of key %d: found %v, model says %v", op.idx, ok, ver >= 0)
		}
		c.model[op.idx] = -1
		c.userBytes += churnKeyLen
	}
	return nil
}

// runChurnStreams runs every stream on its own goroutine and session and
// returns the elapsed wall time. Sessions are closed before it returns, so
// the store's counters include the phase.
func runChurnStreams(st *store.Store, streams []*churnStream, d time.Duration) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	settle()
	t0 := time.Now()
	deadline := t0.Add(d)
	for i, c := range streams {
		c.ser = newSeries(t0, deadline, churnWin)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.ss = st.NewSession()
			errs[i] = c.run(deadline)
			c.ss.Close()
		}()
	}
	wg.Wait()
	return time.Since(t0), errors.Join(errs...)
}

func runKVChurn(o runOpts) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	keys := o.size.churnKeys
	var st *store.Store
	var model churnModel
	var setups []float64
	for k := 0; k < o.size.setups; k++ {
		settle()
		t0 := time.Now()
		var err error
		if st, model, err = loadChurn(keys); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < o.size.setups-1 {
			st.Close()
		}
	}
	pmBase, vlBase := st.Stats(), st.ValueStats()
	streams := make([]*churnStream, churnStreams)
	for i := range streams {
		streams[i] = &churnStream{id: i, gen: newChurnGen(o.seed, i, keys), model: model}
	}

	phase := o.seconds
	if o.trace {
		phase = o.seconds / 2
	}
	el, err := runChurnStreams(st, streams, phase)
	if err != nil {
		return nil, err
	}
	untracedOps := sumOf(streams, func(c *churnStream) int64 { return c.ops })
	sers := make([]*series, len(streams))
	for i, c := range streams {
		sers[i] = c.ser
	}
	ser := mergeSeries(sers...)
	res.note("closed loop: %d ops in %.3fs on %d sessions", untracedOps, el.Seconds(), churnStreams)

	var tracers []*tracer
	measured := el
	if o.trace {
		tracers = newTracers(2 * churnStreams)
		for i, c := range streams {
			c.tr = tracers[i]
		}
		el2, err := runChurnStreams(st, streams, phase)
		if err != nil {
			return nil, err
		}
		measured += el2
		tracedOps := sumOf(streams, func(c *churnStream) int64 { return c.ops }) - untracedOps
		res.metrics["trace.overhead_frac"] = overhead(res, untracedOps, el, tracedOps, el2)
	}

	pm := statsDelta(st.Stats(), pmBase)
	vl := st.ValueStats()
	ops := sumOf(streams, func(c *churnStream) int64 { return c.ops })
	res.attempted = ops
	res.failed = sumOf(streams, func(c *churnStream) int64 { return c.failed })
	userBytes := float64(sumOf(streams, func(c *churnStream) int64 { return c.userBytes }))
	var live int64
	for _, ver := range model {
		if ver >= 0 {
			live += churnKeyLen + churnValLen
		}
	}
	space := float64(spaceInUse(st)) / float64(live)
	res.note("value log: %d GC passes, %d records relocated, garbage ratio %.3f at end",
		vl.GCPasses-vlBase.GCPasses, vl.Relocated-vlBase.Relocated, vl.GarbageRatio())
	if err := checkChurn(st, model); err != nil {
		return nil, err
	}
	shardOf := st.ShardForKey
	st, recovery, err := reopenCycles(st, churnStoreOpts(keys), recoveryRepeats)
	if err != nil {
		return nil, err
	}
	err = checkChurn(st, model)
	st.Close()
	if err != nil {
		return nil, fmt.Errorf("after reopen: %w", err)
	}

	res.metrics["setup_s"] = median(setups)
	res.metrics["throughput_kops"] = ser.rate() / 1000
	latencyMetrics(res, ser)
	res.metrics["pm_write_amp"] = float64(pm.FlushedLines*pmem.LineSize) / userBytes
	res.metrics["space_amp"] = space
	res.metrics["recovery_s"] = median(recovery)
	if !o.trace {
		return res, nil
	}

	lm := layerDefaults()
	lm["trace.overhead_frac"] = res.metrics["trace.overhead_frac"]
	vlogLayer(lm, vl, vlBase, userBytes)
	pmemLayer(lm, pm, ops, measured)
	if err := churnReplayCore(keys, shardOf, streams, tracers[churnStreams:]); err != nil {
		return nil, err
	}
	lm["store.getkv_ns"] = ns(quantile(durations(tracers, "store.getkv"), 0.5))
	lm["store.putkv_ns"] = ns(quantile(durations(tracers, "store.putkv"), 0.5))
	lm["store.deletekv_ns"] = ns(quantile(durations(tracers, "store.deletekv"), 0.5))
	lm["store.self_ns"] = ns(quantile(selfTimes(tracers, []string{"store.getkv", "store.putkv"},
		[]string{"core.get", "core.exchange"}), 0.5))
	lm["core.get_ns"] = ns(quantile(durations(tracers, "core.get"), 0.5))
	lm["core.exchange_ns"] = ns(quantile(durations(tracers, "core.exchange"), 0.5))
	res.metrics = lm
	return res, writeTrace(o.traceDir, fmt.Sprintf("kv-churn-seed%d", o.seed), tracers)
}

// churnReplayCore replays the traced GetKV and PutKV ops on the tree
// beneath the store: a bare FAST+FAIR index per shard, on the same
// emulated device, holding every key's 8-byte prefix. A GetKV is a tree
// Get of the prefix and a PutKV an Exchange of the prefix's word (the
// bucket install). DeleteKV has no single tree counterpart and is not
// replayed.
func churnReplayCore(keys int, shardOf func([]byte) int, streams []*churnStream, ts []*tracer) error {
	cfg := churnStoreOpts(keys)
	ixs := make([]index.Index, churnShards)
	ths := make([]*pmem.Thread, churnShards)
	for i := range ixs {
		ix, th, err := index.New(index.FastFair, pmem.Config{Size: cfg.ShardSize,
			ReadLatency: pmLatency, WriteLatency: pmLatency}, index.Options{})
		if err != nil {
			return fmt.Errorf("core index: %w", err)
		}
		defer ix.Close()
		ixs[i], ths[i] = ix, th
	}
	var kb []byte
	for i := 0; i < keys; i++ {
		kb = churnKey(kb, i)
		sh := shardOf(kb)
		if err := ixs[sh].Insert(ths[sh], store.PackPrefix(kb), uint64(i)+1); err != nil {
			return fmt.Errorf("core load: %w", err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	for g, c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := make([]*pmem.Thread, len(ixs))
			for i, ix := range ixs {
				th[i] = ix.Pool().NewThread()
			}
			var kb []byte
			for _, t := range c.traced {
				kb = churnKey(kb, t.op.idx)
				sh, prefix := shardOf(kb), store.PackPrefix(kb)
				t0 := time.Now()
				switch t.op.kind {
				case churnGet:
					ixs[sh].Get(th[sh], prefix)
					ts[g].add("core.get", t.span, t.req, t0, time.Now())
				case churnPut:
					if _, _, err := index.Exchange(ixs[sh], th[sh], prefix, uint64(t.op.ver)+1); err != nil {
						errs[g] = fmt.Errorf("core replay exchange: %w", err)
						return
					}
					ts[g].add("core.exchange", t.span, t.req, t0, time.Now())
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
