package bpred

// Checkpoint support: every predictor's mutable state — counter tables,
// global histories, folded registers, the TAGE allocation LFSR and all
// statistics — deep-copies into a reusable State buffer and restores
// bit-exactly. Snapshot and Restore are allocation-free once the buffer
// has grown to its steady-state size.

import "fmt"

// PredictorState is a reusable snapshot buffer covering every built-in
// direction predictor. It is a union: each predictor uses the fields its
// state needs and ignores the rest.
type PredictorState struct {
	Kind Kind // the predictor kind the snapshot was taken from

	U8  []uint8 // bimodal table / TAGE base
	U8b []uint8 // gshare table (tournament: global component)
	U8c []uint8 // tournament chooser

	History uint64 // gshare global history

	// TAGE tagged components, concatenated across tables in order.
	Tags     []uint16
	Ctrs     []int8
	Us       []uint8
	Folds    []uint64 // 3 folded-history registers per table (idx, tag0, tag1)
	GHist    []uint8
	GPos     int
	UseAlt   int8
	Rand     uint16
	Branches uint64

	Stats  Stats
	StatsB Stats // tournament: local component's stats
	StatsC Stats // tournament: global component's stats
}

// Checkpointer is implemented by every built-in Predictor.
type Checkpointer interface {
	Snapshot(into *PredictorState)
	Restore(from *PredictorState)
}

// Snapshot dispatches to the predictor's Checkpointer implementation,
// failing loudly for a foreign predictor (a silently partial snapshot
// would corrupt restored runs).
func Snapshot(p Predictor, into *PredictorState) {
	cp, ok := p.(Checkpointer)
	if !ok {
		panic(fmt.Sprintf("bpred: predictor %s does not support checkpointing", p.Name()))
	}
	cp.Snapshot(into)
}

// Restore is Snapshot's inverse; the target predictor must be of the
// same kind and geometry as the snapshot's source.
func Restore(p Predictor, from *PredictorState) {
	cp, ok := p.(Checkpointer)
	if !ok {
		panic(fmt.Sprintf("bpred: predictor %s does not support checkpointing", p.Name()))
	}
	cp.Restore(from)
}

// Snapshot implements Checkpointer.
func (b *bimodal) Snapshot(into *PredictorState) {
	into.Kind = Bimodal
	into.U8 = append(into.U8[:0], b.table...)
	into.Stats = b.stats
}

// Restore implements Checkpointer.
func (b *bimodal) Restore(from *PredictorState) {
	copy(b.table, from.U8)
	b.stats = from.Stats
}

// Snapshot implements Checkpointer.
func (g *gshare) Snapshot(into *PredictorState) {
	into.Kind = GShare
	into.U8b = append(into.U8b[:0], g.table...)
	into.History = g.history
	into.Stats = g.stats
}

// Restore implements Checkpointer.
func (g *gshare) Restore(from *PredictorState) {
	copy(g.table, from.U8b)
	g.history = from.History
	g.stats = from.Stats
}

// Snapshot implements Checkpointer.
func (t *tournament) Snapshot(into *PredictorState) {
	into.Kind = Tournament
	into.U8 = append(into.U8[:0], t.local.table...)
	into.U8b = append(into.U8b[:0], t.global.table...)
	into.U8c = append(into.U8c[:0], t.chooser...)
	into.History = t.global.history
	into.Stats = t.stats
	into.StatsB = t.local.stats
	into.StatsC = t.global.stats
}

// Restore implements Checkpointer.
func (t *tournament) Restore(from *PredictorState) {
	copy(t.local.table, from.U8)
	copy(t.global.table, from.U8b)
	copy(t.chooser, from.U8c)
	t.global.history = from.History
	t.stats = from.Stats
	t.local.stats = from.StatsB
	t.global.stats = from.StatsC
}

// Snapshot implements Checkpointer.
func (t *Tage) Snapshot(into *PredictorState) {
	into.Kind = TAGE
	into.U8 = append(into.U8[:0], t.base...)
	into.Tags = into.Tags[:0]
	into.Ctrs = into.Ctrs[:0]
	into.Us = into.Us[:0]
	into.Folds = into.Folds[:0]
	for _, tab := range t.tables {
		for i := range tab.entries {
			e := &tab.entries[i]
			into.Tags = append(into.Tags, e.tag)
			into.Ctrs = append(into.Ctrs, e.ctr)
			into.Us = append(into.Us, e.u)
		}
		into.Folds = append(into.Folds, tab.idxFold.comp, tab.tagFold[0].comp, tab.tagFold[1].comp)
	}
	into.GHist = append(into.GHist[:0], t.ghist...)
	into.GPos = t.gpos
	into.UseAlt = t.useAltOnNA
	into.Rand = uint16(t.rand)
	into.Branches = t.branches
	into.Stats = t.stats
}

// Restore implements Checkpointer.
func (t *Tage) Restore(from *PredictorState) {
	copy(t.base, from.U8)
	off, foff := 0, 0
	for _, tab := range t.tables {
		for i := range tab.entries {
			e := &tab.entries[i]
			e.tag = from.Tags[off]
			e.ctr = from.Ctrs[off]
			e.u = from.Us[off]
			off++
		}
		tab.idxFold.comp = from.Folds[foff]
		tab.tagFold[0].comp = from.Folds[foff+1]
		tab.tagFold[1].comp = from.Folds[foff+2]
		foff += 3
	}
	copy(t.ghist, from.GHist)
	t.gpos = from.GPos
	t.useAltOnNA = from.UseAlt
	t.rand = lfsr(from.Rand)
	t.branches = from.Branches
	t.stats = from.Stats
}

// ---------------------------------------------------------------------------
// Target predictors

// BTACState is a reusable snapshot of a BTAC.
type BTACState struct {
	Tags    []uint64
	Targets []uint64
	LRU     []uint64
	Clock   uint64
	Stats   Stats
}

// Snapshot deep-copies the BTAC state into the buffer.
func (b *BTAC) Snapshot(into *BTACState) {
	into.Tags = append(into.Tags[:0], b.tags...)
	into.Targets = append(into.Targets[:0], b.targets...)
	into.LRU = append(into.LRU[:0], b.lru...)
	into.Clock = b.clock
	into.Stats = b.stats
}

// Restore overwrites the BTAC state from the buffer.
func (b *BTAC) Restore(from *BTACState) {
	copy(b.tags, from.Tags)
	copy(b.targets, from.Targets)
	copy(b.lru, from.LRU)
	b.clock = from.Clock
	b.stats = from.Stats
}

// IndirectState is a reusable snapshot of an Indirect predictor.
type IndirectState struct {
	Tags    []uint32
	Targets []uint64
	Path    uint64
	Stats   Stats
}

// Snapshot deep-copies the predictor state into the buffer.
func (i *Indirect) Snapshot(into *IndirectState) {
	into.Tags = append(into.Tags[:0], i.tags...)
	into.Targets = append(into.Targets[:0], i.targets...)
	into.Path = i.path
	into.Stats = i.stats
}

// Restore overwrites the predictor state from the buffer.
func (i *Indirect) Restore(from *IndirectState) {
	copy(i.tags, from.Tags)
	copy(i.targets, from.Targets)
	i.path = from.Path
	i.stats = from.Stats
}

// RASState is a reusable snapshot of a return address stack.
type RASState struct {
	Stack []uint64
	Top   int
	Depth int
	Stats Stats
}

// Snapshot deep-copies the stack into the buffer.
func (r *RAS) Snapshot(into *RASState) {
	into.Stack = append(into.Stack[:0], r.stack...)
	into.Top = r.top
	into.Depth = r.depth
	into.Stats = r.stats
}

// Restore overwrites the stack from the buffer.
func (r *RAS) Restore(from *RASState) {
	copy(r.stack, from.Stack)
	r.top = from.Top
	r.depth = from.Depth
	r.stats = from.Stats
}
