package cpu

// Checkpoint support: a Core's State captures every field that evolves
// during execution — trace position, the per-µop time rings, issue-slot
// bookings, MSHRs, caches, TLBs, all predictors and the DL1 prefetcher —
// while leaving the identity fields (id, config, trace, memory binding)
// to the owner that rebuilds the core. Scratch (pfBuf, the prefetchers'
// proposal buffers) and the recorder hook are deliberately not state:
// scratch is dead between Steps, and recording is an observation channel,
// not simulated machinery. Snapshot into a warmed buffer and Restore are
// allocation-free.

import (
	"mcbench/internal/bpred"
	"mcbench/internal/cache"
)

// TLBState is a reusable snapshot of one translation cache.
type TLBState struct {
	Tags   []uint64
	Misses uint64
	Hits   uint64
}

func (t *tlb) snapshot(into *TLBState) {
	into.Tags = append(into.Tags[:0], t.tags...)
	into.Misses = t.misses
	into.Hits = t.hits
}

func (t *tlb) restore(from *TLBState) {
	copy(t.tags, from.Tags)
	t.misses = from.Misses
	t.hits = from.Hits
}

// State is a reusable deep snapshot of a Core.
type State struct {
	Pos int
	Seq uint64

	ShadowRAS []uint64

	IssueT    [ring]uint64
	CompleteT [ring]uint64
	CommitT   [ring]uint64

	LoadSeq   uint64
	StoreSeq  uint64
	LoadDone  [64]uint64
	StoreDone [32]uint64

	FetchCycle   uint64
	FetchInCycle int
	RedirectAt   uint64
	LastILine    uint32
	HaveILine    bool

	Slots [issueSlots]uint64

	LastCommit     uint64
	LastCommitCyc  uint64
	CommitsInCycle int

	DL1MissLine [maxDL1MSHRs]uint64
	DL1MissDone [maxDL1MSHRs]uint64
	DL1MissN    int

	Stats Stats

	IL1  cache.State
	DL1  cache.State
	ITLB TLBState
	DTLB TLBState
	BP   bpred.PredictorState
	BTAC bpred.BTACState
	Ind  bpred.IndirectState
	RAS  bpred.RASState
	DPF  cache.StrideNextState
}

// Snapshot deep-copies the core's mutable state into the buffer. The
// first call grows the buffer's slices; subsequent calls into the same
// buffer allocate nothing.
func (c *Core) Snapshot(into *State) {
	into.Pos = c.pos
	into.Seq = c.seq
	into.ShadowRAS = append(into.ShadowRAS[:0], c.shadowRAS...)
	into.IssueT = c.issueT
	into.CompleteT = c.completeT
	into.CommitT = c.commitT
	into.LoadSeq = c.loadSeq
	into.StoreSeq = c.storeSeq
	into.LoadDone = c.loadDone
	into.StoreDone = c.storeDone
	into.FetchCycle = c.fetchCycle
	into.FetchInCycle = c.fetchInCycle
	into.RedirectAt = c.redirectAt
	into.LastILine = c.lastILine
	into.HaveILine = c.haveILine
	into.Slots = c.slots
	into.LastCommit = c.lastCommit
	into.LastCommitCyc = c.lastCommitCyc
	into.CommitsInCycle = c.commitsInCycle
	for i := range c.dl1Miss {
		into.DL1MissLine[i] = c.dl1Miss[i].line
		into.DL1MissDone[i] = c.dl1Miss[i].done
	}
	into.DL1MissN = c.dl1MissN
	into.Stats = c.stats

	c.il1.Snapshot(&into.IL1)
	c.dl1.Snapshot(&into.DL1)
	c.itlb.snapshot(&into.ITLB)
	c.dtlb.snapshot(&into.DTLB)
	bpred.Snapshot(c.bp, &into.BP)
	c.btac.Snapshot(&into.BTAC)
	c.ind.Snapshot(&into.Ind)
	c.ras.Snapshot(&into.RAS)
	c.dpf.Snapshot(&into.DPF)
}

// Restore overwrites the core's mutable state from the buffer. The target
// core must have the same configuration (and therefore geometry) as the
// snapshot's source; it may otherwise be fresh or mid-run.
func (c *Core) Restore(from *State) {
	c.pos = from.Pos
	c.seq = from.Seq
	c.shadowRAS = append(c.shadowRAS[:0], from.ShadowRAS...)
	c.issueT = from.IssueT
	c.completeT = from.CompleteT
	c.commitT = from.CommitT
	c.loadSeq = from.LoadSeq
	c.storeSeq = from.StoreSeq
	c.loadDone = from.LoadDone
	c.storeDone = from.StoreDone
	c.fetchCycle = from.FetchCycle
	c.fetchInCycle = from.FetchInCycle
	c.redirectAt = from.RedirectAt
	c.lastILine = from.LastILine
	c.haveILine = from.HaveILine
	c.slots = from.Slots
	c.lastCommit = from.LastCommit
	c.lastCommitCyc = from.LastCommitCyc
	c.commitsInCycle = from.CommitsInCycle
	for i := range c.dl1Miss {
		c.dl1Miss[i] = mshrEntry{line: from.DL1MissLine[i], done: from.DL1MissDone[i]}
	}
	c.dl1MissN = from.DL1MissN
	c.stats = from.Stats

	c.il1.Restore(&from.IL1)
	c.dl1.Restore(&from.DL1)
	c.itlb.restore(&from.ITLB)
	c.dtlb.restore(&from.DTLB)
	bpred.Restore(c.bp, &from.BP)
	c.btac.Restore(&from.BTAC)
	c.ind.Restore(&from.Ind)
	c.ras.Restore(&from.RAS)
	c.dpf.Restore(&from.DPF)
}
