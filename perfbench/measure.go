package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/pmem"
	"repro/store"
)

// quantile returns the nearest-rank q-quantile of samples (sorting them in
// place), or 0 for no samples.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := int(q*float64(len(samples))+0.5) - 1
	return samples[max(0, min(i, len(samples)-1))]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// iqm returns the interquartile mean of xs (sorting them in place): the
// mean of the middle half. Unlike a median it moves smoothly as the share
// of slow windows changes, and unlike a mean it ignores the slowest and
// fastest quarter.
func iqm(xs []float64) float64 {
	slices.Sort(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// sumOf adds up f over xs.
func sumOf[T any](xs []T, f func(T) int64) int64 {
	var n int64
	for _, x := range xs {
		n += f(x)
	}
	return n
}

// median returns the median of xs (sorting them in place).
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// A measured phase is cut into windows of a fixed width, each wide enough
// to hold a thousand operations or more, so its p99 has at least ten
// samples beyond it. Rates are computed per window and reported as the
// interquartile mean over the phase's full windows; latency percentiles are
// computed per window and reported as the median over them. The host's
// stalls (a GC cycle, a noisy neighbour's burst) then leave the run's figure
// alone unless they hit most windows.
const (
	serveWin = 10 * time.Millisecond  // ~1,000 open-loop requests
	churnWin = 20 * time.Millisecond  // ~2,000 ops
	tpccWin  = 200 * time.Millisecond // ~1,500 transactions
)

// series buckets the completions of one load stream by window.
type series struct {
	start, end time.Time
	width      time.Duration
	count      []int64
	lat        [][]time.Duration
}

func newSeries(start, end time.Time, width time.Duration) *series {
	return &series{start: start, end: end, width: width}
}

// add records one completion at t; lat < 0 records no latency sample.
func (s *series) add(t time.Time, lat time.Duration) {
	if t.Before(s.start) || !t.Before(s.end) {
		return
	}
	i := int(t.Sub(s.start) / s.width)
	for len(s.count) <= i {
		s.count = append(s.count, 0)
		s.lat = append(s.lat, nil)
	}
	s.count[i]++
	if lat >= 0 {
		s.lat[i] = append(s.lat[i], lat)
	}
}

// full returns how many whole windows fit the phase.
func (s *series) full() int { return max(1, int(s.end.Sub(s.start)/s.width)) }

// mergeSeries folds the per-stream series of one phase together.
func mergeSeries(ss ...*series) *series {
	m := newSeries(ss[0].start, ss[0].end, ss[0].width)
	for _, s := range ss {
		for i := range s.count {
			for len(m.count) <= i {
				m.count = append(m.count, 0)
				m.lat = append(m.lat, nil)
			}
			m.count[i] += s.count[i]
			m.lat[i] = append(m.lat[i], s.lat[i]...)
		}
	}
	return m
}

// rate returns the completions per second, as the interquartile mean over
// the full windows.
func (s *series) rate() float64 {
	rates := make([]float64, s.full())
	for i := range rates {
		if i < len(s.count) {
			rates[i] = float64(s.count[i]) / s.width.Seconds()
		}
	}
	return iqm(rates)
}

// quantile returns the median over the full windows of each window's
// q-quantile latency, and the number of samples behind it.
func (s *series) quantile(q float64) (time.Duration, int) {
	var qs []float64
	n := 0
	for i := 0; i < s.full() && i < len(s.lat); i++ {
		if len(s.lat[i]) > 0 {
			qs = append(qs, float64(quantile(s.lat[i], q)))
			n += len(s.lat[i])
		}
	}
	if len(qs) == 0 {
		return 0, 0
	}
	return time.Duration(median(qs)), n
}

// latencyMetrics sets lat_p50_us and lat_p99_us from a phase's series.
func latencyMetrics(res *result, s *series) {
	p50, n := s.quantile(0.50)
	p99, _ := s.quantile(0.99)
	res.note("latency: %d samples in %d windows of %v; percentiles are the median of per-window percentiles", n, s.full(), s.width)
	res.metrics["lat_p50_us"] = us(p50)
	res.metrics["lat_p99_us"] = us(p99)
}

// overhead notes the traced phase's throughput against the untraced one
// (both as ops over elapsed time) and returns the tracing overhead, the
// share of throughput the spans cost.
func overhead(res *result, ops int64, el time.Duration, tracedOps int64, tracedEl time.Duration) float64 {
	base := float64(ops) / el.Seconds()
	traced := float64(tracedOps) / tracedEl.Seconds()
	res.note("tracing: %.3f Kops/s traced against %.3f untraced", traced/1000, base/1000)
	return (base - traced) / base
}

// settle runs a garbage collection before a timed section, so a
// collection owed by earlier work is not charged to it.
func settle() { runtime.GC() }

// recoveryRepeats is how many Close+Reopen cycles a run times; recovery_s
// is their median.
const recoveryRepeats = 5

// reopenCycles times n cycles of Close then store.Reopen on the same
// pools, starting from an open store. It returns the store left open and
// each cycle's seconds.
func reopenCycles(st *store.Store, opts store.Options, n int) (*store.Store, []float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		settle()
		t0 := time.Now()
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
		next, err := store.Reopen(st.Pools(), opts)
		if err != nil {
			return nil, nil, fmt.Errorf("reopen: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		st = next
	}
	return st, secs, nil
}

// spaceInUse sums the arena bytes allocated across a store's shard pools.
func spaceInUse(st *store.Store) int64 {
	var used int64
	for _, p := range st.Pools() {
		used += p.Size() - p.FreeBytes()
	}
	return used
}

// statsDelta is b − a, field by field.
func statsDelta(b, a pmem.Stats) pmem.Stats {
	d := pmem.Stats{
		Loads:        b.Loads - a.Loads,
		Stores:       b.Stores - a.Stores,
		ChargedReads: b.ChargedReads - a.ChargedReads,
		FlushedLines: b.FlushedLines - a.FlushedLines,
		FlushCalls:   b.FlushCalls - a.FlushCalls,
		Fences:       b.Fences - a.Fences,
		StoreFences:  b.StoreFences - a.StoreFences,
	}
	for i := range d.PhaseTime {
		d.PhaseTime[i] = b.PhaseTime[i] - a.PhaseTime[i]
	}
	return d
}

// pmemLayer fills the pmem.* per-layer metrics from a counter delta over
// ops operations and elapsed wall time.
func pmemLayer(m map[string]float64, d pmem.Stats, ops int64, elapsed time.Duration) {
	n := float64(ops)
	m["pmem.flushed_lines_per_op"] = ratio(float64(d.FlushedLines), n)
	m["pmem.fences_per_op"] = ratio(float64(d.Fences), n)
	m["pmem.stores_per_op"] = ratio(float64(d.Stores), n)
	m["pmem.loads_per_op"] = ratio(float64(d.Loads), n)
	m["pmem.charged_reads_per_op"] = ratio(float64(d.ChargedReads), n)
	m["pmem.flush_stall_frac"] = ratio(float64(d.PhaseTime[pmem.PhaseFlush]), float64(elapsed))
}

// vlogLayer fills the vlog.* per-layer metrics from the value-log
// accounting before (a) and after (b) the measured phases.
func vlogLayer(m map[string]float64, b, a store.ValueLogStats, userBytes float64) {
	passes := float64(b.GCPasses - a.GCPasses)
	m["vlog.gc_passes"] = passes
	m["vlog.relocated_per_pass"] = ratio(float64(b.Relocated-a.Relocated), passes)
	m["vlog.reclaimed_bytes_per_user_byte"] = ratio(float64(b.Reclaimed-a.Reclaimed), userBytes)
	m["vlog.garbage_ratio_end"] = b.GarbageRatio()
}

// ---- tracing ----

// span is one timed call into a layer. id is unique within a run; parent
// names the span of the enclosing layer for the same request (0 = none).
// A replayed inner layer ran after the outer one, so its span nests in the
// request logically, not in time.
type span struct {
	id, parent uint64
	req        uint64
	name       string
	start, end time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps one goroutine's spans in memory. Tracers of one run share
// an epoch and have distinct ids, so their spans merge into one trace.
type tracer struct {
	epoch time.Time
	id    uint64
	spans []span
}

func newTracers(n int) []*tracer {
	epoch := time.Now()
	ts := make([]*tracer, n)
	for i := range ts {
		ts[i] = &tracer{epoch: epoch, id: uint64(i + 1)}
	}
	return ts
}

// add records a span and returns its id.
func (t *tracer) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := t.id<<40 | uint64(len(t.spans)+1)
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return id
}

// durations returns the durations of the spans named name.
func durations(ts []*tracer, name string) []time.Duration {
	var out []time.Duration
	for _, t := range ts {
		for _, s := range t.spans {
			if s.name == name {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

// selfTimes returns, for every span whose name is in outer, its duration
// minus the summed durations of its child spans named in inner: the outer
// layer's self time over the next inner layer.
func selfTimes(ts []*tracer, outer, inner []string) []time.Duration {
	child := map[uint64]time.Duration{}
	for _, t := range ts {
		for _, s := range t.spans {
			if s.parent != 0 && slices.Contains(inner, s.name) {
				child[s.parent] += s.dur()
			}
		}
	}
	var out []time.Duration
	for _, t := range ts {
		for _, s := range t.spans {
			if slices.Contains(outer, s.name) {
				if c, ok := child[s.id]; ok {
					out = append(out, s.dur()-c)
				}
			}
		}
	}
	return out
}

// writeTrace writes every span as one CSV line to dir/<name>.csv.
func writeTrace(dir, name string, ts []*tracer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for _, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.req, s.name,
				int64(s.start), int64(s.end))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxTracedOps caps the requests one load stream traces, bounding the
// spans a traced run keeps in memory and writes out.
const maxTracedOps = 1 << 16
