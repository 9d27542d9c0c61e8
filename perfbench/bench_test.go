package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/tpcc"
	"repro/store"
)

// tinySizes keep the tests fast; the open-loop rate is low enough for a
// race-instrumented build to keep up with.
var tinySizes = sizes{serveKeys: 4096, serveRate: 2000, churnKeys: 2048, setups: 2, tpccSetups: 2}

// TestOpStreamsRepeat: the same seed gives the same op stream, and another
// seed a different one, for every workload's generator.
func TestOpStreamsRepeat(t *testing.T) {
	serve := func(seed int64) []serveOp {
		var ops []serveOp
		for g := 0; g < serveStreams; g++ {
			gen := newServeGen(seed, g, 1<<20)
			for i := 0; i < 5000; i++ {
				ops = append(ops, gen.next())
			}
		}
		return ops
	}
	churn := func(seed int64) []churnOp {
		var ops []churnOp
		for g := 0; g < churnStreams; g++ {
			gen := newChurnGen(seed, g, 20_000)
			for i := 0; i < 5000; i++ {
				ops = append(ops, gen.next())
			}
		}
		return ops
	}
	mix := func(seed int64) []tpccKind {
		rng := rand.New(rand.NewSource(seed))
		ks := make([]tpccKind, 5000)
		for i := range ks {
			ks[i] = tpccW1(rng)
		}
		return ks
	}
	if !slices.Equal(serve(7), serve(7)) || slices.Equal(serve(7), serve(8)) {
		t.Error("serve-read op stream does not follow its seed")
	}
	if !slices.Equal(churn(7), churn(7)) || slices.Equal(churn(7), churn(8)) {
		t.Error("kv-churn op stream does not follow its seed")
	}
	if !slices.Equal(mix(7), mix(7)) || slices.Equal(mix(7), mix(8)) {
		t.Error("tpcc-txn transaction mix does not follow its seed")
	}
}

// TestChurnKeyShape: 7 of 8 keys have a prefix of their own, the rest
// share theirs in groups of 4, and every key is 24 bytes.
func TestChurnKeyShape(t *testing.T) {
	byPrefix := map[uint64]int{}
	var kb []byte
	const keys = 32_000
	for i := 0; i < keys; i++ {
		kb = churnKey(kb, i)
		if len(kb) != churnKeyLen {
			t.Fatalf("key %d has %d bytes", i, len(kb))
		}
		byPrefix[store.PackPrefix(kb)]++
	}
	sizes := map[int]int{}
	for _, n := range byPrefix {
		sizes[n]++
	}
	if sizes[1] != keys*7/8 || sizes[4] != keys/32 || len(sizes) != 2 {
		t.Fatalf("prefix group sizes %v, want %d singles and %d groups of 4", sizes, keys*7/8, keys/32)
	}
}

// runTPCCCounts runs n transactions of the W1 mix from a fixed seed and
// returns the store's pmem counters after Close.
func runTPCCCounts(t *testing.T, n int) pmem.Stats {
	b, err := tpcc.NewStoreBench(tpccWarehouses, tpccStoreOpts())
	if err != nil {
		t.Fatal(err)
	}
	d := &tpccRunner{b: b, rng: rand.New(rand.NewSource(3))}
	d.ser = newSeries(time.Now(), time.Now().Add(time.Hour), tpccWin)
	if err := d.run(time.Time{}, n); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	b.Close()
	s := b.Store().Stats()
	s.PhaseTime = [len(s.PhaseTime)]time.Duration{} // wall time, not a count
	return s
}

// TestTPCCPmemCountsRepeat: tpcc-txn runs on one session, so the same
// transactions persist exactly the same way: stores, flushes and fences
// repeat exactly. Loads repeat only closely: Session.Scan streams each
// shard on its own goroutine, and when the caller stops a scan early
// (Delivery takes the first undelivered order) the shard streams have
// read ahead by a timing-dependent amount.
func TestTPCCPmemCountsRepeat(t *testing.T) {
	a, b := runTPCCCounts(t, 400), runTPCCCounts(t, 400)
	if a.Stores != b.Stores || a.FlushedLines != b.FlushedLines || a.FlushCalls != b.FlushCalls ||
		a.Fences != b.Fences || a.StoreFences != b.StoreFences {
		t.Fatalf("persist counts differ between identical runs:\n%+v\n%+v", a, b)
	}
	close := func(x, y uint64) bool { return x*1000 <= y*1001 && y*1000 <= x*1001 }
	if !close(a.Loads, b.Loads) || !close(a.ChargedReads, b.ChargedReads) {
		t.Fatalf("read counts differ by more than 0.1%% between identical runs:\n%+v\n%+v", a, b)
	}
	if a.FlushedLines == 0 || a.Fences == 0 {
		t.Fatalf("no flushes counted: %+v", a)
	}
}

// TestServeOracleRejectsCorruption: the serve-read read-back passes on a
// real run and fails once one expected value is flipped.
func TestServeOracleRejectsCorruption(t *testing.T) {
	const keys = 4096
	st, err := openServeStore(keys)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sys, err := startServe(st, serveStreams)
	if err != nil {
		t.Fatal(err)
	}
	conns, err := streamConns(sys.pool, serveStreams)
	if err != nil {
		t.Fatal(err)
	}
	streams := newServeStreams(5, keys, conns)
	deadline := time.Now().Add(200 * time.Millisecond)
	_, err = runStreams(streams, func(s *serveStream) error {
		s.ser = newSeries(time.Now(), deadline, serveWin)
		return s.closedLoop(deadline)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.stop(); err != nil {
		t.Fatal(err)
	}
	if err := serveReadBack(st, streams, 5, keys); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	i := slices.IndexFunc(streams[0].last, func(v uint64) bool { return v != 0 })
	if i < 0 {
		t.Fatal("stream 0 wrote nothing")
	}
	streams[0].last[i] ^= 1 << 40
	if err := serveReadBack(st, streams, 5, keys); err == nil {
		t.Fatal("read-back accepted a flipped expected value")
	}
}

// TestChurnOracleRejectsCorruption: the kv-churn model check passes after a
// real run and after Reopen, and fails once one expected version is off.
func TestChurnOracleRejectsCorruption(t *testing.T) {
	const keys = 2048
	st, model, err := loadChurn(keys)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*churnStream, churnStreams)
	for i := range streams {
		streams[i] = &churnStream{id: i, gen: newChurnGen(5, i, keys), model: model}
	}
	if _, err := runChurnStreams(st, streams, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, _, err = reopenCycles(st, churnStoreOpts(keys), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := checkChurn(st, model); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	i := slices.IndexFunc(model, func(v int32) bool { return v > 0 })
	if i < 0 {
		t.Fatal("no key was overwritten")
	}
	model[i]--
	if err := checkChurn(st, model); err == nil {
		t.Fatal("model check accepted a stale expected version")
	}
	model[i]++
	model[i] = -1
	if err := checkChurn(st, model); err == nil {
		t.Fatal("model check accepted a live key expected deleted")
	}
}

// TestTPCCOracleRejectsCorruption: the post-reopen TPC-C check passes on a
// real run and fails once one district-YTD update is dropped.
func TestTPCCOracleRejectsCorruption(t *testing.T) {
	b, err := tpcc.NewStoreBench(tpccWarehouses, tpccStoreOpts())
	if err != nil {
		t.Fatal(err)
	}
	d := &tpccRunner{b: b, rng: rand.New(rand.NewSource(5))}
	d.ser = newSeries(time.Now(), time.Now().Add(time.Hour), tpccWin)
	if err := d.run(time.Time{}, 300); err != nil {
		t.Fatal(err)
	}
	b.Close()
	st, err := store.Reopen(b.Store().Pools(), tpccStoreOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	s, err := readTPCC(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	dist := slices.IndexFunc(s.districtYTD[:], func(v uint64) bool { return v >= 100 })
	if dist < 0 {
		t.Fatal("no payment reached any district")
	}
	s.districtYTD[dist] -= 100 // the smallest payment Payment makes
	if err := s.check(); err == nil {
		t.Fatal("check accepted a dropped district-YTD update")
	}
}

// TestWorkloadsReportEveryMetric runs every workload at tiny size, untraced
// and traced, and checks each reports every metric of its table.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(runOpts{seed: 1, seconds: 400 * time.Millisecond, trace: trace,
				traceDir: t.TempDir(), size: tinySizes})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("%s (trace %v): metric %s missing", name, trace, d.name)
				}
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s (trace %v): %d attempted, %d failed", name, trace, res.attempted, res.failed)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json names exactly the
// workloads and metrics (with units) the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	same := func(table []metricDef, spec []struct{ Name, Unit string }) bool {
		if len(table) != len(spec) {
			return false
		}
		for i := range table {
			if table[i].name != spec[i].Name || table[i].unit != spec[i].Unit {
				return false
			}
		}
		return true
	}
	if !same(endToEnd, spec.EndToEnd) {
		t.Error("BENCHMARK.json end_to_end differs from the endToEnd table")
	}
	if !same(perLayer, spec.PerLayer) {
		t.Error("BENCHMARK.json per_layer differs from the perLayer table")
	}
}
