package cache

// Checkpoint support: every piece of mutable cache state — the packed
// line strips, the replacement policy metadata (including the position
// of seeded random streams) and the prefetcher tables — can be deep-
// copied into a reusable State buffer and restored bit-exactly later.
// Snapshot and Restore are allocation-free once the buffer has grown to
// its steady-state size, so periodic checkpoints do not perturb the
// allocation-free simulation hot paths they interleave with.

import "math/rand"

// RNGState records the position of a policy's seeded pseudo-random
// stream: the seed and the number of draws consumed from the underlying
// source. Restoring re-seeds the source in place and replays the draws,
// reproducing the stream position without copying rand internals.
type RNGState struct {
	Seed  int64
	Draws uint64
}

// countingSource wraps a rand source and counts the values drawn from
// it. Counting at the source level (rather than per Intn call) makes
// the count exact regardless of how many source draws a derived method
// consumes, so replaying Draws source steps always lands on the same
// position.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (s *countingSource) Int63() int64    { s.draws++; return s.src.Int63() }
func (s *countingSource) Uint64() uint64  { s.draws++; return s.src.Uint64() }
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// seededRand is the rand.Rand the randomized policies draw from, with a
// snapshot/restore handle on its position.
type seededRand struct {
	*rand.Rand
	seed int64
	cs   countingSource
}

func newSeededRand(seed int64) *seededRand {
	r := &seededRand{seed: seed}
	r.cs.src = rand.NewSource(seed).(rand.Source64)
	r.Rand = rand.New(&r.cs)
	return r
}

func (r *seededRand) state() RNGState { return RNGState{Seed: r.seed, Draws: r.cs.draws} }

// setState re-seeds the source in place (no allocation) and burns draws
// to reach the recorded position. Policy RNG consumption is a small
// fraction of fills, so the replay is far cheaper than the simulation
// that produced it.
func (r *seededRand) setState(s RNGState) {
	r.cs.src.Seed(s.Seed)
	r.seed = s.Seed
	for i := uint64(0); i < s.Draws; i++ {
		r.cs.src.Int63()
	}
	r.cs.draws = s.Draws
}

// PolicyState is a reusable snapshot buffer covering every built-in
// replacement policy. It is a union: each policy uses the fields its
// metadata needs and ignores the rest, so one buffer type serves LRU
// stamps, DIP's signed stamps and selector, RRIP's re-reference values,
// PLRU's tree bits and SHiP's signature tables alike.
type PolicyState struct {
	U64   []uint64 // LRU/FIFO stamps
	I64   []int64  // DIP stamps
	U8    []uint8  // RRPV arrays (SRRIP/DRRIP/SHiP)
	U8b   []uint8  // SHiP SHCT
	U16   []uint16 // SHiP per-line signatures
	Bools []bool   // PLRU tree bits (flattened) / SHiP outcome bits
	Clock uint64
	Floor int64
	PSEL  int
	Pend  uint64 // SHiP's pending observed address
	RNG   RNGState
}

// policyCheckpointer is implemented by every built-in policy. The
// methods are unexported: checkpointing flows through Cache.Snapshot /
// Cache.Restore, which require the attached policy to implement this.
type policyCheckpointer interface {
	snapshotState(into *PolicyState)
	restoreState(from *PolicyState)
}

// ---------------------------------------------------------------------------
// Per-policy implementations

func (p *lruPolicy) snapshotState(into *PolicyState) {
	into.Clock = p.clock
	into.U64 = append(into.U64[:0], p.stamps...)
}

func (p *lruPolicy) restoreState(from *PolicyState) {
	p.clock = from.Clock
	copy(p.stamps, from.U64)
}

func (p *fifoPolicy) snapshotState(into *PolicyState) {
	into.Clock = p.clock
	into.U64 = append(into.U64[:0], p.stamps...)
}

func (p *fifoPolicy) restoreState(from *PolicyState) {
	p.clock = from.Clock
	copy(p.stamps, from.U64)
}

func (p *randomPolicy) snapshotState(into *PolicyState) {
	into.RNG = p.rng.state()
}

func (p *randomPolicy) restoreState(from *PolicyState) {
	p.rng.setState(from.RNG)
}

func (p *dipPolicy) snapshotState(into *PolicyState) {
	into.Clock = uint64(p.clock)
	into.Floor = p.floor
	into.PSEL = p.psel
	into.I64 = append(into.I64[:0], p.stamps...)
	into.RNG = p.rng.state()
}

func (p *dipPolicy) restoreState(from *PolicyState) {
	p.clock = int64(from.Clock)
	p.floor = from.Floor
	p.psel = from.PSEL
	copy(p.stamps, from.I64)
	p.rng.setState(from.RNG)
}

func (p *srripPolicy) snapshotState(into *PolicyState) {
	into.U8 = append(into.U8[:0], p.rrpv...)
}

func (p *srripPolicy) restoreState(from *PolicyState) {
	copy(p.rrpv, from.U8)
}

func (p *drripPolicy) snapshotState(into *PolicyState) {
	into.U8 = append(into.U8[:0], p.rrpv...)
	into.PSEL = p.psel
	into.RNG = p.rng.state()
}

func (p *drripPolicy) restoreState(from *PolicyState) {
	copy(p.rrpv, from.U8)
	p.psel = from.PSEL
	p.rng.setState(from.RNG)
}

func (p *plruPolicy) snapshotState(into *PolicyState) {
	into.Bools = into.Bools[:0]
	for _, set := range p.bits {
		into.Bools = append(into.Bools, set...)
	}
}

func (p *plruPolicy) restoreState(from *PolicyState) {
	off := 0
	for _, set := range p.bits {
		copy(set, from.Bools[off:off+len(set)])
		off += len(set)
	}
}

func (p *shipPolicy) snapshotState(into *PolicyState) {
	into.U8 = append(into.U8[:0], p.rrpv...)
	into.U8b = append(into.U8b[:0], p.shct...)
	into.U16 = append(into.U16[:0], p.sig...)
	into.Bools = append(into.Bools[:0], p.reRef...)
	into.Pend = p.pending
}

func (p *shipPolicy) restoreState(from *PolicyState) {
	copy(p.rrpv, from.U8)
	copy(p.shct, from.U8b)
	copy(p.sig, from.U16)
	copy(p.reRef, from.Bools)
	p.pending = from.Pend
}

// ---------------------------------------------------------------------------
// Cache snapshot/restore

// State is a reusable deep-copy buffer for one Cache: line strips,
// content generation, statistics and the attached policy's metadata.
type State struct {
	Lines  []line
	Gen    uint64
	Stats  Stats
	Policy PolicyState
}

// Snapshot deep-copies the cache's mutable state into the buffer,
// reusing its backing arrays (zero allocations once grown). The attached
// policy must be one of the built-ins; a foreign policy panics, because
// a silently partial snapshot would corrupt restored runs.
func (c *Cache) Snapshot(into *State) {
	into.Lines = append(into.Lines[:0], c.lines...)
	into.Gen = c.gen
	into.Stats = c.stats
	cp, ok := c.policy.(policyCheckpointer)
	if !ok {
		panic("cache " + c.name + ": policy " + c.policy.Name() + " does not support checkpointing")
	}
	cp.snapshotState(&into.Policy)
}

// Restore overwrites the cache's mutable state from a snapshot taken
// from a cache of identical geometry and policy kind. It allocates
// nothing: contents are copied into the existing arrays.
func (c *Cache) Restore(from *State) {
	if len(from.Lines) != len(c.lines) {
		panic("cache " + c.name + ": restoring a snapshot of different geometry")
	}
	copy(c.lines, from.Lines)
	c.gen = from.Gen
	c.stats = from.Stats
	cp, ok := c.policy.(policyCheckpointer)
	if !ok {
		panic("cache " + c.name + ": policy " + c.policy.Name() + " does not support checkpointing")
	}
	cp.restoreState(&from.Policy)
}

// SetPolicy replaces the replacement policy with a freshly attached one,
// leaving cache contents (lines, dirtiness, statistics) untouched. This
// is the policy-variant fan-out primitive: a sweep restores a shared
// warmup snapshot and swaps in each candidate policy's virgin metadata,
// keeping the warmed working set.
func (c *Cache) SetPolicy(p Policy) error {
	if err := p.Attach(c.sets, c.ways); err != nil {
		return err
	}
	c.policy = p
	c.addrObs, _ = p.(AddressAware)
	c.lru, _ = p.(*lruPolicy)
	return nil
}

// ---------------------------------------------------------------------------
// Prefetcher snapshot/restore
//
// The prefetchers' scratch proposal buffers are deliberately not part of
// the state: their contents never survive an Observe call. The training
// tables are the state.

// StrideNextState snapshots the DL1 pairing (IP-stride + next-line; the
// next-line part is stateless).
type StrideNextState struct {
	Stride [ipStrideTableSize]ipStrideEntry
}

// Snapshot copies the training tables into the buffer.
func (p *StrideNextPrefetcher) Snapshot(into *StrideNextState) {
	into.Stride = p.stride.table
}

// Restore overwrites the training tables from the buffer.
func (p *StrideNextPrefetcher) Restore(from *StrideNextState) {
	p.stride.table = from.Stride
}

// StrideStreamState snapshots the LLC pairing (IP-stride + stream).
type StrideStreamState struct {
	Stride [ipStrideTableSize]ipStrideEntry
	Keys   [streamTableSize]uint64
	Clocks [streamTableSize]uint64
	Hits   [streamTableSize]uint8
	Clock  uint64
}

// Snapshot copies the training tables into the buffer.
func (p *StrideStreamPrefetcher) Snapshot(into *StrideStreamState) {
	into.Stride = p.stride.table
	into.Keys = p.stream.keys
	into.Clocks = p.stream.clocks
	into.Hits = p.stream.hits
	into.Clock = p.stream.clock
}

// Restore overwrites the training tables from the buffer.
func (p *StrideStreamPrefetcher) Restore(from *StrideStreamState) {
	p.stride.table = from.Stride
	p.stream.keys = from.Keys
	p.stream.clocks = from.Clocks
	p.stream.hits = from.Hits
	p.stream.clock = from.Clock
}
