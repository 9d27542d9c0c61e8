package store

import (
	"bytes"
	"errors"
	"testing"
)

// TestNoSpaceDegradesGracefully drives a tiny store to space exhaustion and
// pins the whole ErrNoSpace lifecycle: writes fail fast and typed once the
// pool cannot guarantee GC headroom, reads and deletes keep working the
// entire time, and after deletes plus compaction free log space the same
// store accepts writes again — degradation that clears itself, not death.
func TestNoSpaceDegradesGracefully(t *testing.T) {
	st, err := Open(Options{Shards: 1, ShardSize: 4 << 20, ValueLogExtent: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	val := make([]byte, 8<<10)
	for i := range val {
		val[i] = byte(i * 7)
	}

	// Fill until the admission check refuses.
	var full error
	var written []uint64
	for k := uint64(1); k <= 4096; k++ {
		if err := ss.PutKV(k8(k), val); err != nil {
			full = err
			break
		}
		written = append(written, k)
	}
	if full == nil {
		t.Fatal("4096 8KiB values fit a 4MiB shard; admission never refused")
	}
	if !errors.Is(full, ErrNoSpace) {
		t.Fatalf("write on full store failed with %v, want ErrNoSpace", full)
	}
	if len(written) == 0 {
		t.Fatal("store admitted nothing before filling")
	}

	// The refusal is stable (and each refused write is also an inline
	// compaction attempt that finds nothing to reclaim — no garbage yet).
	if err := ss.PutKV(k8(1<<40), val); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("second write on full store: %v, want ErrNoSpace", err)
	}

	// Degraded, not dead: every written value still reads back exactly,
	// and deletes work.
	for _, k := range written {
		got, ok, err := ss.GetKV(k8(k), nil)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("GetKV(%d) on full store = (ok=%v, err=%v)", k, ok, err)
		}
	}

	// Free ~half the data, compact, and the store must admit writes again:
	// the condition clears through the normal delete+GC path, no restart.
	for _, k := range written[:len(written)/2] {
		if ok, err := ss.DeleteKV(k8(k)); err != nil || !ok {
			t.Fatalf("DeleteKV(%d) on full store = (%v, %v)", k, ok, err)
		}
	}
	if _, err := ss.CompactValues(); err != nil {
		t.Fatalf("CompactValues on full store: %v", err)
	}
	recovered := 0
	for k := uint64(1 << 20); k < 1<<20+16; k++ {
		if err := ss.PutKV(k8(k), val); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("post-compaction write failed oddly: %v", err)
			}
			break
		}
		recovered++
	}
	if recovered == 0 {
		t.Fatal("store refused every write even after deletes + compaction")
	}

	// And the survivors are still intact.
	for _, k := range written[len(written)/2:] {
		got, ok, err := ss.GetKV(k8(k), nil)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("GetKV(%d) after compaction = (ok=%v, err=%v)", k, ok, err)
		}
	}
}
