package metrics

// Sampler chooses which operations a hot path clocks. Reading the clock
// twice costs ~100ns on some hosts, so latency histograms observe a 1-in-N
// subset of operations. A plain counter tick would alias with any periodic
// op mix — a strictly alternating Put/Get stream through a 1-in-8 tick
// clocks only one of the two — so the choice comes from a xorshift32
// stream instead: each operation is sampled independently with the same
// probability, whatever the mix. The zero value is ready to use. A Sampler
// belongs to one goroutine (a session, a connection reader, a worker) and
// is not safe for concurrent use.
type Sampler struct{ x uint32 }

// Sample advances the stream and reports whether the current operation
// should be clocked, with probability 1/(mask+1). mask must be a power of
// two minus one; 0 samples every operation.
func (s *Sampler) Sample(mask uint32) bool {
	x := s.x
	if x == 0 {
		x = 0x9e3779b9 // any non-zero seed; zero is xorshift's fixed point
	}
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	s.x = x
	return x&mask == 0
}
