package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// Crash-consistency matrix for the byte-key write path: tape one PutKV,
// then for EVERY persist point on the tape and every crash mode reopen the
// image and check the failure-atomicity contract — committed keys
// byte-exact, the in-flight key either fully absent or fully present
// (never torn, never an error), and its bucket's pre-existing colliders
// intact either way. The tape is taken twice, once per install path: a key
// joining a bucket that already holds prefix-colliding keys (the bucket
// rewrite plus ReplaceIf of the tree word) and a key with a fresh prefix
// (a single-entry bucket plus a tree insert).

func kvPutCrashMatrix(t *testing.T, model pmem.MemModel) {
	for _, tc := range []struct {
		name  string
		inKey string
	}{
		{"collidingBucket", "crashkey-target"},
		{"freshPrefix", "zz-fresh-prefix"},
	} {
		t.Run(tc.name, func(t *testing.T) { kvPutCrashTape(t, model, []byte(tc.inKey)) })
	}
}

func kvPutCrashTape(t *testing.T, model pmem.MemModel, inKey []byte) {
	rng := rand.New(rand.NewSource(77))
	st, err := Open(Options{
		Shards:    1,
		ShardSize: 32 << 20,
		Mem:       pmem.Config{TrackCrashes: true, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	committed := map[string][]byte{}
	commit := func(k string, n int) {
		t.Helper()
		v := bytes.Repeat([]byte{byte(len(k))}, n)
		if err := ss.PutKV([]byte(k), v); err != nil {
			t.Fatalf("commit %q: %v", k, err)
		}
		committed[k] = v
	}
	// Background population, including two keys sharing the colliding
	// in-flight key's 8-byte prefix (same bucket: that PutKV rewrites the
	// record THEY live in) and an empty-adjacent pair.
	for i := 0; i < 20; i++ {
		commit(fmt.Sprintf("bg-%04d", i), i*13%300)
	}
	commit("crashkey-a", 150)
	commit("crashkey-b", 0)
	commit("edge", 40)
	commit("edge\x00", 41)

	pool := st.Pool(0)
	pool.StartCrashLog()
	inVal := bytes.Repeat([]byte{0xc7}, 200)
	after := append(append([]byte(nil), inKey[:8]...), "-after"...)
	if err := ss.PutKV(inKey, inVal); err != nil {
		t.Fatal(err)
	}
	tape := pool.LogLen()
	if tape == 0 {
		t.Fatal("empty crash tape")
	}
	for point := 0; point <= tape; point++ {
		for _, mode := range []pmem.CrashMode{pmem.CrashNone, pmem.CrashAll, pmem.CrashRandom} {
			img := pool.CrashImage(point, mode, rng)
			re, err := Reopen([]*pmem.Pool{img}, Options{})
			if err != nil {
				t.Fatalf("point %d/%d mode %d: reopen: %v", point, tape, mode, err)
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatalf("point %d mode %d: invariants: %v", point, mode, err)
			}
			rs := re.NewSession()
			for k, v := range committed {
				got, ok, err := rs.GetKV([]byte(k), nil)
				if err != nil || !ok || !bytes.Equal(got, v) {
					t.Fatalf("point %d mode %d: committed key %q: ok=%v err=%v", point, mode, k, ok, err)
				}
			}
			got, ok, err := rs.GetKV(inKey, nil)
			if err != nil {
				t.Fatalf("point %d mode %d: in-flight key errored (torn state visible): %v", point, mode, err)
			}
			if ok && !bytes.Equal(got, inVal) {
				t.Fatalf("point %d mode %d: TORN value for in-flight key", point, mode)
			}
			if point == tape && !ok {
				t.Fatalf("completed PutKV lost at full tape (mode %d)", mode)
			}
			// The store must stay writable after recovery, including into
			// the bucket the crash interrupted.
			if err := rs.PutKV(after, []byte("recovered")); err != nil {
				t.Fatalf("point %d mode %d: post-recovery write: %v", point, mode, err)
			}
			rs.Close()
			re.Close()
		}
	}
	ss.Close()
	st.Close()
}

func TestCrashEveryPointOfOnePutKV(t *testing.T)       { kvPutCrashMatrix(t, pmem.TSO) }
func TestCrashEveryPointOfOnePutKVNonTSO(t *testing.T) { kvPutCrashMatrix(t, pmem.NonTSO) }

// TestKVCrashRandomCampaign tapes a burst of byte-key mutations —
// overwrite, colliding insert, delete — and crashes at random points
// under both memory models: every key must land on one of its legal
// states (old value, new value, or absent for deletes/inserts), with the
// untouched population byte-exact throughout.
func TestKVCrashRandomCampaign(t *testing.T) {
	iters := 30
	crashesPer := 8
	if testing.Short() {
		iters, crashesPer = 8, 4
	}
	for _, model := range []pmem.MemModel{pmem.TSO, pmem.NonTSO} {
		t.Run(model.String(), func(t *testing.T) {
			for it := 0; it < iters; it++ {
				rng := rand.New(rand.NewSource(int64(1000*it) + int64(model)))
				st, err := Open(Options{
					Shards:    1,
					ShardSize: 16 << 20,
					Mem:       pmem.Config{TrackCrashes: true, Model: model},
				})
				if err != nil {
					t.Fatal(err)
				}
				ss := st.NewSession()
				stable := map[string][]byte{}
				put := func(k string, v []byte) {
					t.Helper()
					if err := ss.PutKV([]byte(k), v); err != nil {
						t.Fatalf("iter %d: put %q: %v", it, k, err)
					}
				}
				for i := 0; i < 10; i++ {
					k := fmt.Sprintf("stable-%03d", i)
					v := bytes.Repeat([]byte{byte(i)}, rng.Intn(200))
					put(k, v)
					stable[k] = v
				}
				oldOver := []byte("old-overwrite-value")
				oldDel := []byte("old-delete-value")
				put("mutate-o", oldOver) // will be overwritten on tape
				put("mutate-d", oldDel)  // will be deleted on tape

				pool := st.Pool(0)
				pool.StartCrashLog()
				newOver := bytes.Repeat([]byte{0xab}, 1+rng.Intn(300))
				insVal := bytes.Repeat([]byte{0xcd}, rng.Intn(300))
				put("mutate-o", newOver) // overwrite in place
				put("mutate-i", insVal)  // insert, collides with mutate-o/d's prefix
				if _, err := ss.DeleteKV([]byte("mutate-d")); err != nil {
					t.Fatalf("iter %d: delete: %v", it, err)
				}
				tape := pool.LogLen()
				for c := 0; c < crashesPer; c++ {
					point := rng.Intn(tape + 1)
					img := pool.CrashImage(point, pmem.CrashRandom, rng)
					re, err := Reopen([]*pmem.Pool{img}, Options{})
					if err != nil {
						t.Fatalf("iter %d point %d: reopen: %v", it, point, err)
					}
					if err := re.CheckInvariants(); err != nil {
						t.Fatalf("iter %d point %d: invariants: %v", it, point, err)
					}
					rs := re.NewSession()
					for k, v := range stable {
						got, ok, err := rs.GetKV([]byte(k), nil)
						if err != nil || !ok || !bytes.Equal(got, v) {
							t.Fatalf("iter %d point %d: stable key %q: ok=%v err=%v", it, point, k, ok, err)
						}
					}
					check := func(k string, legal ...[]byte) {
						t.Helper()
						got, ok, err := rs.GetKV([]byte(k), nil)
						if err != nil {
							t.Fatalf("iter %d point %d: %q errored: %v", it, point, k, err)
						}
						for _, want := range legal {
							if want == nil && !ok {
								return
							}
							if want != nil && ok && bytes.Equal(got, want) {
								return
							}
						}
						t.Fatalf("iter %d point %d: %q in illegal state (ok=%v, %d bytes)",
							it, point, k, ok, len(got))
					}
					check("mutate-o", oldOver, newOver)
					check("mutate-i", nil, insVal)
					check("mutate-d", oldDel, nil)
					rs.Close()
					re.Close()
				}
				ss.Close()
				st.Close()
			}
		})
	}
}

// TestCrashMidPutKV crashes one shard of four at a random point inside a
// window of PutKV traffic — regularly mid-append or between the log publish
// and the tree install — and Reopens the store from the images. Committed
// values survive byte-exact, the in-flight era is all-or-nothing per key
// (no torn value is ever visible), only the crashed shard may lose window
// keys, and the recovered store keeps serving both key families.
func TestCrashMidPutKV(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		st, err := Open(Options{
			Shards:    4,
			ShardSize: 32 << 20,
			Mem:       pmem.Config{TrackCrashes: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		ss := st.NewSession()

		committed := map[uint64][]byte{}
		for i := 0; i < 800; i++ {
			k := rng.Uint64()%100000 + 1
			v := bval(k, rng.Intn(500))
			if err := ss.PutKV(k8(k), v); err != nil {
				t.Fatal(err)
			}
			committed[k] = v
		}

		for i := 0; i < st.NumShards(); i++ {
			st.Pool(i).StartCrashLog()
		}

		// Each window key is written once: a key written twice could
		// legally crash back to its first window value.
		victim := trial % st.NumShards()
		window := map[uint64][]byte{}
		for len(window) < 300 {
			k := rng.Uint64()%100000 + 200000
			if _, dup := window[k]; dup {
				continue
			}
			v := bval(k, rng.Intn(500))
			if err := ss.PutKV(k8(k), v); err != nil {
				t.Fatal(err)
			}
			window[k] = v
		}
		images := make([]*pmem.Pool, st.NumShards())
		for i := 0; i < st.NumShards(); i++ {
			pool := st.Pool(i)
			point := pool.LogLen()
			if i == victim {
				point = rng.Intn(pool.LogLen() + 1)
			}
			images[i] = pool.CrashImage(point, pmem.CrashRandom, rng)
		}
		ss.Close()
		st.Close()

		re, err := Reopen(images, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: post-recovery invariants: %v", trial, err)
		}
		rs := re.NewSession()

		var buf []byte
		for k, v := range committed {
			got, ok, err := rs.GetKV(k8(k), buf[:0])
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("trial %d: lost committed key %d: (%v, %v)", trial, k, ok, err)
			}
			buf = got
		}
		survived, lost := 0, 0
		for k, v := range window {
			got, ok, err := rs.GetKV(k8(k), buf[:0])
			shard := re.ShardForKey(k8(k))
			switch {
			case err == nil && ok && bytes.Equal(got, v):
				survived++
			case err == nil && !ok && shard == victim:
				lost++ // atomic loss of an in-flight write: legal
			case err == nil && !ok:
				t.Fatalf("trial %d: shard %d lost key %d but only shard %d crashed mid-tape",
					trial, shard, k, victim)
			default:
				t.Fatalf("trial %d: TORN value at key %d: ok=%v err=%v", trial, k, ok, err)
			}
			buf = got
		}
		t.Logf("trial %d: victim shard %d; window: %d survived, %d atomically lost",
			trial, victim, survived, lost)

		// The recovered store serves both key families and accepts new
		// writes.
		if err := rs.PutKV(k8(777), []byte("post-crash value")); err != nil {
			t.Fatalf("trial %d: post-recovery PutKV: %v", trial, err)
		}
		if err := rs.Put(1<<45, 42); err != nil {
			t.Fatalf("trial %d: post-recovery Put: %v", trial, err)
		}
		rs.Close()
		re.Close()
	}
}
