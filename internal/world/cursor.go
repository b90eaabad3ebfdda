package world

import "cellspot/internal/netaddr"

// Cursor answers per-block questions for one walk that asks them in
// canonical block order, such as a walk over DEMAND's rows, without a
// BlockIndex probe per block. World.Blocks lists each family's blocks in
// ascending order but interleaves the families, so the cursor keeps one
// position per family. A query at or ahead of its family's position steps
// forward through Blocks, skipping the other family's blocks; any other
// query, and any block the step does not find (one appended out of order
// by AddBlock, say), falls back to BlockIndex. Every answer is the one
// the World's own method gives.
//
// A cursor is stateful: each walk makes its own with World.NewCursor, and
// no cursor is shared between goroutines. Values kept past the walk, or
// shared, use the World's stateless methods instead.
type Cursor struct {
	w   *World
	pos [2]int // per family: index into w.Blocks where the next step starts

	// The last AS AppendAffinity asked for, and its resolver plan.
	planAS uint32
	plan   *dnsPlan
}

// NewCursor returns a cursor at the start of w's blocks.
func (w *World) NewCursor() *Cursor { return &Cursor{w: w} }

// Block is World.Block.
func (c *Cursor) Block(b netaddr.Block) *BlockInfo {
	f := b.Fam()
	if int(f) >= len(c.pos) {
		return c.w.BlockIndex[b]
	}
	blocks := c.w.Blocks
	i := c.pos[f]
	for ; i < len(blocks); i++ {
		bi := blocks[i]
		if bi.Block.Fam() != f {
			continue
		}
		if bi.Block == b {
			c.pos[f] = i
			return bi
		}
		if b.Less(bi.Block) {
			break
		}
	}
	c.pos[f] = i
	return c.w.BlockIndex[b]
}

// ASOf is World.ASOf.
func (c *Cursor) ASOf(b netaddr.Block) (uint32, bool) {
	bi := c.Block(b)
	if bi == nil {
		return 0, false
	}
	return bi.ASN, true
}

// AppendAffinity is World.AppendAffinity. Consecutive blocks mostly share
// an operator, so the cursor keeps the last resolver plan it looked up.
func (c *Cursor) AppendAffinity(dst []ResolverWeight, b netaddr.Block) []ResolverWeight {
	bi := c.Block(b)
	if bi == nil || bi.Demand <= 0 {
		return dst
	}
	if c.plan == nil || c.planAS != bi.ASN {
		c.planAS, c.plan = bi.ASN, c.w.dnsPlans[bi.ASN]
	}
	return c.w.appendAffinity(dst, bi, c.plan)
}
