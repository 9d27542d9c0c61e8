package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/pmem"
)

// k8 returns the 8-byte big-endian byte key whose prefix is k, so the
// uint64-numbered keys of the value-log tests map one-to-one onto
// single-entry buckets.
func k8(k uint64) []byte { return binary.BigEndian.AppendUint64(nil, k) }

// bval is a deterministic value of n bytes derived from k.
func bval(k uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(k>>uint(8*(i%8))) ^ byte(i)
	}
	return b
}

func kvTestStore(t *testing.T, opts Options) (*Store, *Session) {
	t.Helper()
	if opts.Shards == 0 {
		opts.Shards = 4
	}
	if opts.ShardSize == 0 {
		opts.ShardSize = 8 << 20
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ss := st.NewSession()
	t.Cleanup(func() { ss.Close(); st.Close() })
	return st, ss
}

func TestPackPrefixOrder(t *testing.T) {
	keys := [][]byte{
		{0x00}, {0x00, 0x00}, {0x01}, []byte("a"), []byte("a\x00"),
		[]byte("aa"), []byte("ab"), []byte("abcdefgh"), []byte("abcdefghi"),
		[]byte("abcdefgi"), []byte("b"), bytes.Repeat([]byte{0xff}, 9),
	}
	for i, a := range keys {
		for j, b := range keys {
			pa, pb := PackPrefix(a), PackPrefix(b)
			cmp := bytes.Compare(a, b)
			if pa < pb && cmp >= 0 {
				t.Errorf("PackPrefix(%q) < PackPrefix(%q) but keys not ordered (%d,%d)", a, b, i, j)
			}
			if cmp == 0 && pa != pb {
				t.Errorf("equal keys %q with different prefixes", a)
			}
		}
	}
	if PackPrefix([]byte("a")) != uint64('a')<<56 {
		t.Errorf("PackPrefix(a) = %#x", PackPrefix([]byte("a")))
	}
}

func TestKVBasic(t *testing.T) {
	_, ss := kvTestStore(t, Options{})
	put := func(k, v string) {
		t.Helper()
		if err := ss.PutKV([]byte(k), []byte(v)); err != nil {
			t.Fatalf("PutKV(%q): %v", k, err)
		}
	}
	get := func(k string) (string, bool) {
		t.Helper()
		v, ok, err := ss.GetKV([]byte(k), nil)
		if err != nil {
			t.Fatalf("GetKV(%q): %v", k, err)
		}
		return string(v), ok
	}
	put("hello", "world")
	put("a", "1")
	// Prefix collisions: all these share the first 8 bytes.
	put("collide-x", "vx")
	put("collide-y", "vy")
	put("collide-", "short") // the prefix itself as a key
	if v, ok := get("hello"); !ok || v != "world" {
		t.Fatalf("get hello = %q,%v", v, ok)
	}
	if v, ok := get("collide-x"); !ok || v != "vx" {
		t.Fatalf("get collide-x = %q,%v", v, ok)
	}
	if v, ok := get("collide-y"); !ok || v != "vy" {
		t.Fatalf("get collide-y = %q,%v", v, ok)
	}
	if v, ok := get("collide-"); !ok || v != "short" {
		t.Fatalf("get collide- = %q,%v", v, ok)
	}
	if _, ok := get("collide-z"); ok {
		t.Fatal("absent collide-z present")
	}
	if _, ok := get("hell"); ok {
		t.Fatal("absent prefix-of-live-key present")
	}
	// Overwrite.
	put("collide-x", "vx2")
	if v, _ := get("collide-x"); v != "vx2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if v, _ := get("collide-y"); v != "vy" {
		t.Fatalf("neighbor damaged by overwrite: %q", v)
	}
	// Delete one collider; others survive.
	if ok, err := ss.DeleteKV([]byte("collide-y")); err != nil || !ok {
		t.Fatalf("DeleteKV: %v %v", ok, err)
	}
	if _, ok := get("collide-y"); ok {
		t.Fatal("deleted key present")
	}
	if v, _ := get("collide-x"); v != "vx2" {
		t.Fatalf("neighbor damaged by delete: %q", v)
	}
	if ok, _ := ss.DeleteKV([]byte("collide-y")); ok {
		t.Fatal("double delete reported present")
	}
	// Delete last entry of a bucket drops the prefix entirely.
	if ok, _ := ss.DeleteKV([]byte("hello")); !ok {
		t.Fatal("delete hello")
	}
	if _, ok := get("hello"); ok {
		t.Fatal("hello still present")
	}
}

func TestKVLimitsAndErrors(t *testing.T) {
	_, ss := kvTestStore(t, Options{Shards: 1, ShardSize: 16 << 20})
	if err := ss.PutKV(nil, []byte("v")); !errors.Is(err, ErrKeyEmpty) {
		t.Fatalf("empty key: %v", err)
	}
	if err := ss.PutKV(bytes.Repeat([]byte("k"), MaxKey+1), nil); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("oversized key: %v", err)
	}
	if err := ss.PutKV([]byte("k"), make([]byte, MaxKVValue+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("oversized value: %v", err)
	}
	if _, _, err := ss.GetKV(nil, nil); !errors.Is(err, ErrKeyEmpty) {
		t.Fatalf("GetKV empty key: %v", err)
	}
	if _, err := ss.DeleteKV(bytes.Repeat([]byte("k"), MaxKey+1)); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("DeleteKV oversized: %v", err)
	}
	// Max-sized key and value round-trip.
	bigK := bytes.Repeat([]byte("K"), MaxKey)
	bigV := bytes.Repeat([]byte("V"), MaxKVValue)
	if err := ss.PutKV(bigK, bigV); err != nil {
		t.Fatalf("max-sized put: %v", err)
	}
	v, ok, err := ss.GetKV(bigK, nil)
	if err != nil || !ok || !bytes.Equal(v, bigV) {
		t.Fatalf("max-sized get: ok=%v err=%v len=%d", ok, err, len(v))
	}
	// Empty value is a legal, present value.
	if err := ss.PutKV([]byte("empty"), nil); err != nil {
		t.Fatalf("empty value: %v", err)
	}
	if v, ok, err := ss.GetKV([]byte("empty"), nil); err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value get: %q %v %v", v, ok, err)
	}
	// A prefix written through the fixed-width API reads as ErrNotKeyed,
	// not as a misparsed bucket. (One shard, so ShardFor and ShardForKey
	// agree and the lookup must hit the foreign word.)
	p := PackPrefix([]byte("mixed!!!"))
	if err := ss.Put(p, 12345); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, _, err := ss.GetKV([]byte("mixed!!!"), nil); !errors.Is(err, ErrNotKeyed) {
		t.Fatalf("GetKV on fixed-width prefix: %v, want ErrNotKeyed", err)
	}
}

func TestKVScan(t *testing.T) {
	_, ss := kvTestStore(t, Options{})
	var want []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("scan/%03d", i)
		want = append(want, k)
		if err := ss.PutKV([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// Colliding keys interleave correctly in scan order: same 8-byte
	// prefix "scan/05x" extended.
	extra := []string{"scan/050a", "scan/050b"}
	for _, k := range extra {
		if err := ss.PutKV([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	want = append(want[:51], append([]string{"scan/050a", "scan/050b"}, want[51:]...)...)

	var got []string
	err := ss.ScanKV(nil, nil, 0, func(k, v []byte) bool {
		got = append(got, string(k))
		if string(v) != "v-"+string(k) {
			t.Fatalf("wrong value for %q: %q", k, v)
		}
		return true
	})
	if err != nil {
		t.Fatalf("ScanKV: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Bounded sub-range [scan/010, scan/020].
	got = got[:0]
	if err := ss.ScanKV([]byte("scan/010"), []byte("scan/020"), 0, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatalf("ScanKV bounded: %v", err)
	}
	if len(got) != 11 || got[0] != "scan/010" || got[10] != "scan/020" {
		t.Fatalf("bounded scan: %v", got)
	}
	// Pagination with the +"\x00" successor: pages concatenate to the
	// full range without duplicates.
	var pages []string
	lo := []byte(nil)
	for {
		n := 0
		var last []byte
		if err := ss.ScanKV(lo, nil, 7, func(k, v []byte) bool {
			pages = append(pages, string(k))
			last = append(last[:0], k...)
			n++
			return true
		}); err != nil {
			t.Fatalf("page: %v", err)
		}
		if n < 7 {
			break
		}
		lo = append(last, 0)
	}
	if len(pages) != len(want) {
		t.Fatalf("paged scan count %d, want %d", len(pages), len(want))
	}
	for i := range pages {
		if pages[i] != want[i] {
			t.Fatalf("paged[%d] = %q, want %q", i, pages[i], want[i])
		}
	}
	// max truncates.
	n := 0
	if err := ss.ScanKV(nil, nil, 5, func(k, v []byte) bool { n++; return true }); err != nil || n != 5 {
		t.Fatalf("max: n=%d err=%v", n, err)
	}
	// Early stop.
	n = 0
	if err := ss.ScanKV(nil, nil, 0, func(k, v []byte) bool { n++; return false }); err != nil || n != 1 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

func TestKVReopen(t *testing.T) {
	opts := Options{Shards: 2, ShardSize: 8 << 20}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ss := st.NewSession()
	keys := []string{"a", "a\x00", "aa", "collide-1", "collide-2", "zzzzzzzzzzzz"}
	for _, k := range keys {
		if err := ss.PutKV([]byte(k), []byte("val:"+k)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	pools := st.Pools()
	ss.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2, err := Reopen(pools, Options{Shards: 2, ShardSize: 8 << 20})
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer st2.Close()
	ss2 := st2.NewSession()
	defer ss2.Close()
	for _, k := range keys {
		v, ok, err := ss2.GetKV([]byte(k), nil)
		if err != nil || !ok || string(v) != "val:"+k {
			t.Fatalf("after reopen, %q = %q,%v,%v", k, v, ok, err)
		}
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Post-recovery writes work, including into surviving buckets.
	if err := ss2.PutKV([]byte("collide-3"), []byte("new")); err != nil {
		t.Fatalf("post-reopen put: %v", err)
	}
	if v, ok, _ := ss2.GetKV([]byte("collide-3"), nil); !ok || string(v) != "new" {
		t.Fatalf("post-reopen get: %q %v", v, ok)
	}
}

func TestKVGCPreservesBuckets(t *testing.T) {
	// Churn overwrites next to colliding entries so GC relocates bucket
	// records, then verify every KV entry survives byte-exact.
	_, ss := kvTestStore(t, Options{Shards: 1, ShardSize: 8 << 20, ValueLogExtent: 16 << 10})
	keys := map[string][]byte{}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("gc-key-%02d-%d", i%8, i) // shared prefixes
		v := bytes.Repeat([]byte{byte(i)}, 128)
		keys[k] = v
		if err := ss.PutKV([]byte(k), v); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// Heavy overwrite churn forces automatic GC through the bucket path.
	for round := 0; round < 30; round++ {
		for i := 0; i < 8; i++ {
			k := fmt.Sprintf("churn-%d", i)
			v := bytes.Repeat([]byte{byte(round)}, 512)
			if err := ss.PutKV([]byte(k), v); err != nil {
				t.Fatalf("churn put: %v", err)
			}
			keys[k] = v
		}
	}
	if _, err := ss.CompactValues(); err != nil {
		t.Fatalf("CompactValues: %v", err)
	}
	st := ss.s
	if st.ValueStats().GCPasses == 0 {
		t.Fatal("no GC pass ran; churn insufficient")
	}
	for k, v := range keys {
		got, ok, err := ss.GetKV([]byte(k), nil)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("after GC, %q: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestKVCrashSmoke(t *testing.T) {
	// A coarse crash check ahead of the exhaustive matrix in
	// kv_crash_test.go: crash-all after a committed PutKV, reopen, and the
	// write must be there.
	opts := Options{Shards: 1, ShardSize: 4 << 20, Mem: pmem.Config{TrackCrashes: true}}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ss := st.NewSession()
	pool := st.Pool(0)
	pool.StartCrashLog()
	if err := ss.PutKV([]byte("crash-key"), []byte("crash-val")); err != nil {
		t.Fatalf("put: %v", err)
	}
	img := pool.CrashImage(pool.LogLen(), pmem.CrashAll, nil)
	ss.Close()
	st.Close()
	st2, err := Reopen([]*pmem.Pool{img}, Options{Shards: 1, ShardSize: 4 << 20})
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer st2.Close()
	ss2 := st2.NewSession()
	defer ss2.Close()
	v, ok, err := ss2.GetKV([]byte("crash-key"), nil)
	if err != nil || !ok || string(v) != "crash-val" {
		t.Fatalf("after crash: %q %v %v", v, ok, err)
	}
}

// TestKVConcurrentSessions drives byte-key puts/gets from several
// goroutines (one Session each) to exercise the per-shard writer mutex and
// the log append against the lock-free readers under the race detector.
func TestKVConcurrentSessions(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const goroutines = 4
	const perG = 300
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			ss := st.NewSession()
			defer ss.Close()
			base := uint64(g) << 32
			var buf []byte
			for i := uint64(1); i <= perG; i++ {
				k := base | i
				v := bval(k, int(i%250))
				if err := ss.PutKV(k8(k), v); err != nil {
					errs <- err
					return
				}
				got, ok, err := ss.GetKV(k8(k), buf[:0])
				if err != nil || !ok || !bytes.Equal(got, v) {
					errs <- fmt.Errorf("g%d key %d: ok=%v err=%v", g, k, ok, err)
					return
				}
				buf = got
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
