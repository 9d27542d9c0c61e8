package store

import (
	"fmt"
	"time"

	"repro/index"
	"repro/internal/vlog"
)

// Value-log garbage collection, threaded through the store's shard
// discipline.
//
// Each shard compacts independently: a pass takes the shard's sealed
// value-log extents emptiest-first (by the log's per-extent live bytes),
// copies the records its tree still references to the log tail (an
// ordinary failure-atomic append), commits each copy with a latched
// conditional replace of the tree word (old ref → new ref, refusing if a
// concurrent writer got there first), then drains readers and frees the
// extent. Liveness is the tree's word: a record is live iff
// Get(record.key) returns its ref — the one fact the log cannot know by
// itself and the reason records carry their key.
//
// # Why no tree ref can ever name freed log space
//
// The reclamation gate is shardGC.varMu, held shared by everyone who is
// in a window where a log record matters without the tree fully saying so:
// readers for their tree-word→log-bytes resolve, and byte-key writers from
// the bucket append to the tree install (the appended record is invisible
// to GC's liveness until the install lands). A fence is an exclusive
// acquire-and-release of varMu. The GC pass fixes its victims — extents
// sealed when it starts — then runs a leading fence, and per victim sweep →
// fence → free. Consider a victim E:
//
//   - A writer that appended into E (necessarily before E was sealed, so
//     before the pass started) and has not yet installed the ref: it
//     holds the RLock, so the leading fence waits out its install, and
//     E's one sweep, which starts after that fence, sees the ref and
//     relocates the record. No ref into E can be installed after the
//     leading fence except by GC's own swaps: every later append lands
//     beyond the sealed extents, and each append's ref is installed
//     exactly once, by its own writer.
//   - A reader whose RLock precedes E's fence Lock: the fence waits, so E
//     outlives the access. It may read a pre-swap (old) copy — intact
//     (records are immutable and E unfreed) and byte-identical to the
//     relocated one unless it raced an application overwrite, which is
//     the store's documented read-uncommitted window, not a GC artifact.
//   - A reader whose RLock follows E's fence: it loads the ref from the
//     tree after every swap out of E committed, so the ref does not point
//     into E.
//
// ScanKV resolves refs collected before its per-bucket RLock, so it
// additionally retries through the tree when a snapshot ref no longer
// validates — see resolveKVBucket.
//
// Automatic passes piggyback on the writing session: when an overwrite or
// delete tips a shard past Options.GCGarbageRatio (and one extent's worth
// of garbage exists), the writer runs the pass inline on its own
// per-shard thread. shardGC.runMu keeps passes singular per shard;
// automatic triggers TryLock it, so at most one writer pays while the
// rest proceed.

// CompactStats aggregates the work of the per-shard GC passes one
// CompactValues call ran.
type CompactStats struct {
	// ExtentsFreed counts log extents unlinked and returned to their
	// pools; ReclaimedBytes their total arena bytes (headers included).
	ExtentsFreed   int
	ReclaimedBytes int64
	// Relocated counts live records copied to their log's tail;
	// DroppedBytes the payload of dead records discarded with their
	// extents; Skipped relocations abandoned because the application
	// overwrote the key mid-pass.
	Relocated    int
	DroppedBytes int64
	Skipped      int
}

func (c *CompactStats) add(r vlog.GCResult) {
	c.ExtentsFreed += r.Extents
	c.ReclaimedBytes += r.ReclaimedBytes
	c.Relocated += r.Relocated
	c.DroppedBytes += r.DroppedBytes
	c.Skipped += r.Skipped
}

// CompactValues runs a full value-log GC pass on every shard, reclaiming
// the space of overwritten and deleted byte-key buckets, and reports the work
// done. Each pass frees every extent that was sealed when it started,
// emptiest first (see vlog.Log.GC). It is safe to call concurrently with
// any other operation — readers and writers on the same shards proceed
// during the pass (writers may briefly serialise with a relocation's tree
// swap on a shared leaf, or with one of the pass's fences) — and
// concurrently with itself, passes on one shard simply queueing. On a
// closed store it returns ErrClosed.
//
// Compaction needs headroom to copy an extent's live records before the
// extent is freed; a pool too full to stage them fails with the shard's
// ErrFull-wrapped error, so compact before the pool is exhausted (the
// automatic GCGarbageRatio trigger exists for exactly that).
func (ss *Session) CompactValues() (CompactStats, error) {
	var cs CompactStats
	if !ss.s.acquire() {
		return cs, ErrClosed
	}
	defer ss.s.release()
	for i := range ss.s.shards {
		res, err := ss.compactShard(i, 0, true)
		cs.add(res)
		if err != nil {
			return cs, fmt.Errorf("store: shard %d GC: %w", i, err)
		}
	}
	return cs, nil
}

// autoGCExtents bounds one automatic trigger's pass: the triggering writer
// pays for the few emptiest extents, not the shard's whole backlog — steady-state
// reclamation is the same (triggers keep firing while the ratio holds),
// but no single Put/Delete absorbs a full-log compaction latency cliff.
const autoGCExtents = 4

// compactShard runs one GC pass on shard i using the session's thread,
// reclaiming at most maxExtents extents (0 = no bound). When wait is false
// (automatic triggers) a pass already running on the shard makes this a
// no-op. Caller holds the store's close gate.
func (ss *Session) compactShard(i, maxExtents int, wait bool) (vlog.GCResult, error) {
	sh := &ss.s.shards[i]
	if wait {
		sh.gc.runMu.Lock()
	} else if !sh.gc.runMu.TryLock() {
		return vlog.GCResult{}, nil
	}
	defer sh.gc.runMu.Unlock()
	th := ss.ths[i]
	start := time.Now()
	res, err := sh.vl.GC(th, maxExtents, vlog.GCFuncs{
		Live: func(key uint64, ref vlog.Ref) bool {
			v, ok := sh.ix.Get(th, key)
			return ok && v == uint64(ref)
		},
		Swap: func(key uint64, old, new vlog.Ref) bool {
			return index.ReplaceIf(sh.ix, th, key, uint64(old), uint64(new))
		},
		Fence: func() {
			// A deliberately empty exclusive section: acquiring varMu
			// waits out every writer mid-install of an appended record's
			// ref (what the pass's leading fence is for) and every reader
			// that could hold a pre-swap ref snapshot (what each victim's
			// fence is for; see the package comment above). Nothing is
			// protected inside — the lock IS the barrier.
			sh.gc.varMu.Lock()
			//lint:ignore SA2001 quiescence barrier, not a critical section
			sh.gc.varMu.Unlock()
		},
	})
	ss.s.met.recordGC(start, res.Relocated)
	return res, err
}

// retireWord is the single funnel for garbage accounting: every operation
// that displaces a tree word hands it here, and the value log decides —
// by validating the word against the record it would name — whether it
// was a bucket reference whose bytes just became garbage. Fixed-width
// values fail the validation and change nothing, which is what makes
// Put/Delete on fixed-width keys account consistently (nothing to
// reclaim, nothing counted).
func (ss *Session) retireWord(i int, key uint64, old uint64) bool {
	return ss.s.shards[i].vl.MarkStale(ss.ths[i], key, vlog.Ref(old))
}

// maybeGC is the automatic trigger, called after an operation turned a
// live record into garbage. It must be called without the close gate held
// (it re-acquires it), so a long pass never delays Close observing the
// triggering operation's completion.
func (ss *Session) maybeGC(i int) {
	ratio := ss.s.opts.GCGarbageRatio
	if ratio < 0 {
		return
	}
	st := ss.s.shards[i].vl.QuickStats()
	if st.Garbage < ss.s.opts.ValueLogExtent || st.GarbageRatio() < ratio {
		return
	}
	if !ss.s.acquire() {
		return
	}
	defer ss.s.release()
	// Best-effort: errors (e.g. a pool too full to stage relocations) are
	// not the triggering operation's failure; the next trigger or a
	// manual CompactValues surfaces persistent trouble.
	_, _ = ss.compactShard(i, autoGCExtents, false)
}
