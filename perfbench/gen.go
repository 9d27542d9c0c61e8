package main

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
)

// Op streams. Every stream is a pure function of (seed, stream index,
// position): the generators never look at the clock or at the system's
// answers, so the same seed sends the same requests whatever the timing.

// streamRand derives the rand source of one load stream from the run seed.
func streamRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919 + 1))
}

// mix64 is the splitmix64 finaliser, used to derive checkable values.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// ---- serve-read: u64 keys over the wire ----

type serveKind uint8

const (
	serveGet serveKind = iota
	servePut
	serveScan
)

func (k serveKind) String() string {
	return [...]string{"get", "put", "scan"}[k]
}

// serveOp is one request of the serve-read stream. idx is the key's dense
// index; val is the value a Put sends.
type serveOp struct {
	kind serveKind
	idx  int
	val  uint64
}

// serveKey maps a dense key index to the stored u64 key. Keys are dense so
// a 32-pair Scan page starting at serveKey(i) is exactly serveKey(i..i+31).
func serveKey(i int) uint64 { return uint64(i) + 1 }

// serveVal is the value a key holds at a version: the low 32 bits identify
// the key, the high 32 bits the write (0 = the preloaded value), so any
// read can be checked without knowing which write it observes.
func serveVal(key uint64, version uint32) uint64 {
	return uint64(version)<<32 | uint64(uint32(mix64(key)))
}

// serveGen draws the serve-read mix for one of two load streams: 90% Get,
// 8% Put, 2% Scan over uniform keys. Stream g writes only the keys whose
// index has parity g, so each stream owns the expected value of its keys.
type serveGen struct {
	rng    *rand.Rand
	keys   int
	stream int
	// version counts the stream's Puts. Only the stream writes it; the
	// other stream reads it as the bound on versions it may observe.
	version atomic.Uint32
}

func newServeGen(seed int64, stream, keys int) *serveGen {
	return &serveGen{rng: streamRand(seed, stream), keys: keys, stream: stream}
}

func (g *serveGen) next() serveOp {
	r := g.rng.Intn(100)
	switch {
	case r < 90:
		return serveOp{kind: serveGet, idx: g.rng.Intn(g.keys)}
	case r < 98:
		idx := g.rng.Intn(g.keys/2)*2 + g.stream
		return serveOp{kind: servePut, idx: idx, val: serveVal(serveKey(idx), g.version.Add(1))}
	default:
		return serveOp{kind: serveScan, idx: g.rng.Intn(g.keys)}
	}
}

// ---- kv-churn: byte keys with 256-byte values ----

type churnKind uint8

const (
	churnGet churnKind = iota
	churnPut
	churnDelete
)

func (k churnKind) String() string {
	return [...]string{"getkv", "putkv", "deletekv"}[k]
}

// churnOp is one op of the kv-churn stream on key index idx. A Put writes
// version ver of the key's value.
type churnOp struct {
	kind churnKind
	idx  int
	ver  uint32
}

// churnOwner is the load stream that owns key index i. Ownership flips
// every 8 indexes, so the 4 keys of one shared-prefix group (indexes 7,
// 15, 23, 31 mod 32) are written by both streams.
func churnOwner(i int) int { return (i >> 3) & 1 }

// churnKey builds the 24-byte key of index i. In 7 of 8 keys the first 8
// bytes are unique; every index 7 mod 8 shares its prefix with the three
// others of its group of 32, so single- and multi-entry buckets both run.
func churnKey(dst []byte, i int) []byte {
	dst = dst[:0]
	var prefix uint64
	if i%8 == 7 {
		prefix = mix64(uint64(i/32) | 1<<62)
	} else {
		prefix = mix64(uint64(i))
	}
	dst = binary.BigEndian.AppendUint64(dst, prefix)
	dst = binary.BigEndian.AppendUint64(dst, uint64(i))
	return binary.BigEndian.AppendUint64(dst, mix64(uint64(i)^0xabcdef))
}

// churnVal fills dst with the n-byte value of version ver of key index i.
func churnVal(dst []byte, i int, ver uint32, n int) []byte {
	dst = dst[:0]
	x := uint64(i)<<32 | uint64(ver)
	for len(dst)+8 <= n {
		x = mix64(x)
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	for len(dst) < n {
		dst = append(dst, byte(x>>(8*(len(dst)%8))))
	}
	return dst
}

// churnGen draws the kv-churn mix for one stream: Zipf(1.1) over the
// stream's own keys (ranks mapped through a seeded permutation, so hot keys
// spread over shards and prefix groups), 50% Put / 45% Get / 5% Delete.
type churnGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	owned   []int // key indexes of this stream, in hotness order
	version uint32
}

func newChurnGen(seed int64, stream, keys int) *churnGen {
	var owned []int
	for i := 0; i < keys; i++ {
		if churnOwner(i) == stream {
			owned = append(owned, i)
		}
	}
	rng := streamRand(seed, stream)
	rng.Shuffle(len(owned), func(a, b int) { owned[a], owned[b] = owned[b], owned[a] })
	return &churnGen{
		rng:   rng,
		zipf:  rand.NewZipf(rng, 1.1, 1, uint64(len(owned)-1)),
		owned: owned,
	}
}

func (g *churnGen) next() churnOp {
	idx := g.owned[g.zipf.Uint64()]
	r := g.rng.Intn(100)
	switch {
	case r < 50:
		g.version++
		return churnOp{kind: churnPut, idx: idx, ver: g.version}
	case r < 95:
		return churnOp{kind: churnGet, idx: idx}
	default:
		return churnOp{kind: churnDelete, idx: idx}
	}
}

// ---- tpcc-txn: the W1 transaction mix ----

type tpccKind uint8

const (
	tpccNewOrder tpccKind = iota
	tpccPayment
	tpccOrderStatus
	tpccDelivery
	tpccStockLevel
	numTPCCKinds
)

func (k tpccKind) String() string {
	return [...]string{"neworder", "payment", "orderstatus", "delivery", "stocklevel"}[k]
}

// tpccW1 draws one transaction type of the paper's W1 mix: 34% NewOrder,
// 43% Payment, 5% OrderStatus, 4% Delivery, 14% StockLevel.
func tpccW1(rng *rand.Rand) tpccKind {
	r := rng.Intn(100)
	switch {
	case r < 34:
		return tpccNewOrder
	case r < 77:
		return tpccPayment
	case r < 82:
		return tpccOrderStatus
	case r < 86:
		return tpccDelivery
	default:
		return tpccStockLevel
	}
}
