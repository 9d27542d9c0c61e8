package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/pmem"
	"repro/internal/tpcc"
	"repro/store"
)

// tpcc-txn: the redo-log commit path. One StoreBench with one warehouse on
// the kv-churn device, driven from one session.
const tpccWarehouses = 1

func tpccStoreOpts() store.Options {
	return store.Options{Shards: 4, ShardSize: 64 << 20,
		Latency: store.LatencyOptions{Read: pmLatency, Write: pmLatency}}
}

// Row keys of the StoreBench tables the oracle reads. They mirror the key
// packing in internal/tpcc/storebench.go (a 4-bit table tag in bits 60-63);
// if that layout changes, the oracle below fails rather than passing.
const (
	tpccTagWarehouse uint64 = 1
	tpccTagDistrict  uint64 = 2
	tpccTagOrder     uint64 = 4
	tpccTagNewOrder  uint64 = 5
	tpccTagHistory   uint64 = 10
)

func tpccWarehouseKey(w int) uint64 { return tpccTagWarehouse<<60 | uint64(w) }
func tpccDistrictKey(w, d int) uint64 {
	return tpccTagDistrict<<60 | uint64(w)<<8 | uint64(d)
}
func tpccOrderKey(tag uint64, w, d int, o uint64) uint64 {
	return tag<<60 | uint64(w)<<40 | uint64(d)<<32 | o
}

// tpccState is what the oracle reads from the store's rows for warehouse 1.
type tpccState struct {
	warehouseYTD, historySum uint64
	districtYTD, nextOrder   [tpcc.Districts + 1]uint64
	maxOrder                 [tpcc.Districts + 1]uint64
	newOrders                int64 // undelivered orders
}

func readTPCC(ss *store.Session) (tpccState, error) {
	var s tpccState
	const w = 1
	v, ok, err := ss.Get(tpccWarehouseKey(w))
	if err != nil || !ok {
		return s, fmt.Errorf("tpcc: warehouse row: found %v, %v", ok, err)
	}
	s.warehouseYTD = v
	for d := 1; d <= tpcc.Districts; d++ {
		v, ok, err := ss.Get(tpccDistrictKey(w, d))
		if err != nil || !ok {
			return s, fmt.Errorf("tpcc: district %d row: found %v, %v", d, ok, err)
		}
		s.districtYTD[d], s.nextOrder[d] = v&0xffffffff, v>>32
		err = ss.Scan(tpccOrderKey(tpccTagOrder, w, d, 0), tpccOrderKey(tpccTagOrder, w, d, 1<<32-1),
			func(k, _ uint64) bool {
				s.maxOrder[d] = k & 0xffffffff
				return true
			})
		if err != nil {
			return s, err
		}
	}
	err = ss.Scan(tpccTagNewOrder<<60, tpccTagNewOrder<<60|(1<<60-1), func(_, _ uint64) bool {
		s.newOrders++
		return true
	})
	if err != nil {
		return s, err
	}
	err = ss.Scan(tpccTagHistory<<60, tpccTagHistory<<60|(1<<60-1), func(_, v uint64) bool {
		s.historySum += v
		return true
	})
	return s, err
}

// check applies the TPC-C consistency conditions to the rows: warehouse YTD
// is the sum of its districts' YTD and of all history amounts, and every
// district's next order id follows its highest order.
func (s *tpccState) check() error {
	var sum uint64
	for d := 1; d <= tpcc.Districts; d++ {
		sum += s.districtYTD[d]
		if s.maxOrder[d] != s.nextOrder[d]-1 {
			return fmt.Errorf("tpcc: district %d next order %d but highest order %d", d, s.nextOrder[d], s.maxOrder[d])
		}
	}
	if sum != s.warehouseYTD {
		return fmt.Errorf("tpcc: warehouse YTD %d != district YTD sum %d", s.warehouseYTD, sum)
	}
	if s.historySum != s.warehouseYTD {
		return fmt.Errorf("tpcc: history sum %d != warehouse YTD %d", s.historySum, s.warehouseYTD)
	}
	return nil
}

// tpccSpans names the span of each transaction type.
var tpccSpans = [numTPCCKinds]string{"tpcc.neworder", "tpcc.payment", "tpcc.orderstatus", "tpcc.delivery", "tpcc.stocklevel"}

// tpccRunner draws the W1 mix and calls one StoreBench method per
// transaction, timing each.
type tpccRunner struct {
	b       *tpcc.StoreBench
	rng     *rand.Rand
	count   [numTPCCKinds]int64
	failed  int64
	ser     *series
	tr      *tracer
	seq     uint64
	commits int64
}

func (d *tpccRunner) call(k tpccKind) error {
	switch k {
	case tpccNewOrder:
		return d.b.NewOrder(d.rng)
	case tpccPayment:
		return d.b.Payment(d.rng)
	case tpccOrderStatus:
		return d.b.OrderStatus(d.rng)
	case tpccDelivery:
		return d.b.Delivery(d.rng)
	default:
		return d.b.StockLevel(d.rng)
	}
}

// run executes transactions until the deadline or until limit of them
// (limit <= 0: no limit) have run.
func (d *tpccRunner) run(deadline time.Time, limit int) error {
	for n := 0; limit <= 0 || n < limit; n++ {
		k := tpccW1(d.rng)
		t0 := time.Now()
		err := d.call(k)
		t1 := time.Now()
		d.seq++
		if err != nil {
			if !errors.Is(err, store.ErrNoSpace) {
				return fmt.Errorf("%v: %w", k, err)
			}
			d.failed++
		} else {
			d.count[k]++
			if k == tpccNewOrder || k == tpccPayment || k == tpccDelivery {
				d.commits++
			}
		}
		d.ser.add(t1, t1.Sub(t0))
		if d.tr != nil {
			d.tr.add(tpccSpans[k], 0, d.seq, t0, t1)
		}
		if !deadline.IsZero() && t1.After(deadline) {
			break
		}
	}
	return nil
}

func (d *tpccRunner) txns() int64 {
	n := d.failed
	for _, c := range d.count {
		n += c
	}
	return n
}

// tpccBaseline opens and immediately closes one StoreBench: its counters
// are the load's own, and reopening its pools gives the initial rows.
func tpccBaseline() (pmem.Stats, tpccState, time.Duration, error) {
	settle()
	t0 := time.Now()
	b, err := tpcc.NewStoreBench(tpccWarehouses, tpccStoreOpts())
	if err != nil {
		return pmem.Stats{}, tpccState{}, 0, err
	}
	setup := time.Since(t0)
	b.Close()
	load := b.Store().Stats()
	st, err := store.Reopen(b.Store().Pools(), tpccStoreOpts())
	if err != nil {
		return pmem.Stats{}, tpccState{}, 0, err
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	init, err := readTPCC(ss)
	return load, init, setup, err
}

func runTPCC(o runOpts) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	// The first set-up is the baseline: closed at once, it gives the load's
	// counters and the initial rows. The last one is measured.
	load, init, setup0, err := tpccBaseline()
	if err != nil {
		return nil, err
	}
	setups := []float64{setup0.Seconds()}
	var b *tpcc.StoreBench
	for k := 1; k < max(2, o.size.tpccSetups); k++ {
		settle()
		t0 := time.Now()
		if b, err = tpcc.NewStoreBench(tpccWarehouses, tpccStoreOpts()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < o.size.tpccSetups-1 {
			b.Close()
		}
	}

	d := &tpccRunner{b: b, rng: rand.New(rand.NewSource(o.seed))}
	vlBase := b.Store().ValueStats()
	phase := o.seconds
	if o.trace {
		phase = o.seconds / 2
	}
	settle()
	t0 := time.Now()
	d.ser = newSeries(t0, t0.Add(phase), tpccWin)
	if err := d.run(t0.Add(phase), 0); err != nil {
		return nil, err
	}
	el := time.Since(t0)
	untraced := d.txns()
	ser := d.ser
	res.note("closed loop: %d transactions in %.3fs on one session", untraced, el.Seconds())
	measured := el
	var tracers []*tracer
	if o.trace {
		tracers = newTracers(1)
		d.tr = tracers[0]
		settle()
		t0 := time.Now()
		d.ser = newSeries(t0, t0.Add(phase), tpccWin)
		if err := d.run(t0.Add(phase), maxTracedOps); err != nil {
			return nil, err
		}
		el2 := time.Since(t0)
		measured += el2
		res.metrics["trace.overhead_frac"] = overhead(res, untraced, el, d.txns()-untraced, el2)
	}

	if err := b.CheckConsistency(); err != nil {
		return nil, err
	}
	space := spaceInUse(b.Store())
	vl := b.Store().ValueStats()
	settle()
	t1 := time.Now()
	b.Close()
	closing := time.Since(t1)
	pm := statsDelta(b.Store().Stats(), load)
	t1 = time.Now()
	st, err := store.Reopen(b.Store().Pools(), tpccStoreOpts())
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	recovery := []float64{(closing + time.Since(t1)).Seconds()}
	st, more, err := reopenCycles(st, tpccStoreOpts(), recoveryRepeats-1)
	if err != nil {
		return nil, err
	}
	recovery = append(recovery, more...)
	userBytes, rows, err := tpccAfterReopen(st, d, init)
	st.Close()
	if err != nil {
		return nil, err
	}

	res.attempted, res.failed = d.txns(), d.failed
	res.metrics["setup_s"] = median(setups)
	res.metrics["throughput_kops"] = ser.rate() / 1000
	latencyMetrics(res, ser)
	res.metrics["pm_write_amp"] = float64(pm.FlushedLines*pmem.LineSize) / float64(userBytes)
	res.metrics["space_amp"] = float64(space) / float64(rows*16)
	res.metrics["recovery_s"] = median(recovery)
	if !o.trace {
		return res, nil
	}
	lm := layerDefaults()
	lm["trace.overhead_frac"] = res.metrics["trace.overhead_frac"]
	for _, name := range tpccSpans {
		lm[name+"_us"] = us(quantile(durations(tracers, name), 0.5))
	}
	lm["txn.flushed_lines_per_commit"] = ratio(float64(pm.FlushedLines), float64(d.commits))
	lm["txn.fences_per_commit"] = ratio(float64(pm.Fences), float64(d.commits))
	vlogLayer(lm, vl, vlBase, float64(userBytes))
	pmemLayer(lm, pm, d.txns(), measured)
	res.metrics = lm
	return res, writeTrace(o.traceDir, fmt.Sprintf("tpcc-txn-seed%d", o.seed), tracers)
}

// tpccAfterReopen runs the oracle on the reopened store: structural
// invariants, then the consistency conditions on the recovered rows, and
// the new orders it finds against the NewOrders that committed. It returns
// the user bytes the run wrote (16 per u64 put or delete) and the live row
// count.
func tpccAfterReopen(st *store.Store, d *tpccRunner, init tpccState) (userBytes, rows int64, err error) {
	if err := st.CheckInvariants(); err != nil {
		return 0, 0, fmt.Errorf("after reopen: %w", err)
	}
	ss := st.NewSession()
	defer ss.Close()
	end, err := readTPCC(ss)
	if err != nil {
		return 0, 0, err
	}
	if err := end.check(); err != nil {
		return 0, 0, fmt.Errorf("after reopen: %w", err)
	}
	// NewOrder writes the district, order, custorder and neworder rows
	// plus an order line and a stock row per line; Payment four rows;
	// Delivery a neworder delete and a customer credit per order.
	var newOrders, lines int64
	for dist := 1; dist <= tpcc.Districts; dist++ {
		newOrders += int64(end.nextOrder[dist] - init.nextOrder[dist])
		err := ss.Scan(tpccOrderKey(tpccTagOrder, 1, dist, init.nextOrder[dist]),
			tpccOrderKey(tpccTagOrder, 1, dist, end.nextOrder[dist]-1), func(_, v uint64) bool {
				lines += int64(v & 0xffff)
				return true
			})
		if err != nil {
			return 0, 0, err
		}
	}
	if newOrders != d.count[tpccNewOrder] {
		return 0, 0, fmt.Errorf("after reopen: %d new orders in the store, %d NewOrders committed", newOrders, d.count[tpccNewOrder])
	}
	delivered := init.newOrders + newOrders - end.newOrders
	writes := 4*newOrders + 2*lines + 4*d.count[tpccPayment] + 2*delivered
	n, err := ss.Len()
	return 16 * writes, int64(n), err
}
