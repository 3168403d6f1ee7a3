package core

import (
	"fmt"
	"math"
	"strconv"

	"tellme/internal/billboard"
	"tellme/internal/probe"
)

// ObjectSpace abstracts the objects ZeroRadius divides and probes.
//
// For the plain algorithm the abstract objects are real objects and a
// probe is one billboard probe (BinarySpace). For Large Radius, Step 4,
// each abstract object is a whole object group whose possible values are
// Coalesce candidates; probing it runs Select over the group
// (VirtualSpace in largeradius.go).
type ObjectSpace interface {
	// Len returns the number of abstract objects.
	Len() int
	// Probe reveals player pl's value for abstract object j, charging
	// pl for whatever real probing that takes.
	Probe(pl *probe.Player, j int) uint32
}

// BatchObjectSpace is implemented by object spaces whose probes have no
// sequential dependency, so a whole set of abstract objects can be
// probed in one batched call (one network round trip against a remote
// billboard). ZeroRadius leaves use it when available; spaces whose
// probes are adaptive (VirtualSpace runs Select per probe) simply don't
// implement it and keep the per-object path.
type BatchObjectSpace interface {
	ObjectSpace
	// ProbeMany probes abstract objects js, writing values into dst
	// (dst[k] for js[k]), equivalently to calling Probe per object.
	ProbeMany(pl *probe.Player, js []int, dst []uint32)
}

// BinarySpace is the identity ObjectSpace: abstract object j is the real
// object Objs[j] and its value is the player's 0/1 grade.
type BinarySpace struct {
	Objs []int
}

// Len implements ObjectSpace.
func (s BinarySpace) Len() int { return len(s.Objs) }

// Probe implements ObjectSpace.
func (s BinarySpace) Probe(pl *probe.Player, j int) uint32 {
	return uint32(pl.Probe(s.Objs[j]))
}

// ProbeMany implements BatchObjectSpace: one batched probe call for the
// mapped real objects.
func (s BinarySpace) ProbeMany(pl *probe.Player, js []int, dst []uint32) {
	objs := pl.ObjScratch(len(js))
	for k, j := range js {
		objs[k] = s.Objs[j]
	}
	pl.ProbeMany(objs, dst)
}

// zrNode is one node of the ZeroRadius recursion tree. The tree is built
// by the shared coin, so every player knows the full structure. The
// billboard topic is precomputed so the per-player phase bodies never
// format strings.
type zrNode struct {
	id          int
	depth       int
	topic       string
	ref         billboard.TopicRef // resolved for the node's posting level
	players     []int
	objs        []int // abstract object ids
	cands       [][]uint32
	left, right *zrNode
}

func (nd *zrNode) leaf() bool { return nd.left == nil }

// batchPoster is optionally implemented by boards that can take a whole
// node's posting burst in one call (billboard.Board.PostValuesBatchRef).
// ZeroRadius posts one value vector per player per node per level, and
// nothing reads a node's topic until the level's phase barrier has
// passed — so the coordinator can hold each phase's rows (they are
// pre-published scratch, written during the phase) and ship them per
// node afterwards, equivalently to the per-player posts but with one
// lock acquisition and one storage carve per node instead of per post.
type batchPoster interface {
	TopicRef(name string) billboard.TopicRef
	PostValuesBatchRef(r billboard.TopicRef, players []int, rows [][]uint32)
}

// ZeroRadius implements Algorithm Zero Radius (Fig. 2) for the players
// in `players` over the given object space, with frequency parameter
// alpha.
//
// Returns out[p] = player p's output value vector (length space.Len(),
// indexed by abstract object id); entries for non-participating players
// are nil. If at least alpha·len(players) participants share identical
// value vectors, Theorem 3.1 says w.h.p. they all output that shared
// vector, after O(log n/α) probes each (times the per-probe cost of the
// space).
func ZeroRadius(env *Env, players []int, space ObjectSpace, alpha float64) [][]uint32 {
	out := make([][]uint32, env.N)
	flat := zeroRadiusFlat(env, players, space, alpha)
	width := space.Len()
	for i, p := range players {
		out[p] = flat[i*width : (i+1)*width]
	}
	return out
}

// zeroRadiusFlat is ZeroRadius with positional, packed output: the
// returned slice holds players[i]'s value vector at
// [i*width, (i+1)*width), width = space.Len(). One heap allocation
// total, nothing sized by env.N — the recursive callers (SmallRadius
// runs one ZeroRadius per partition part per iteration, usually over a
// small player group) use it directly.
func zeroRadiusFlat(env *Env, players []int, space ObjectSpace, alpha float64) []uint32 {
	if len(players) == 0 {
		return nil
	}
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("core: ZeroRadius alpha %v out of (0,1]", alpha))
	}
	defer env.span(kindZeroRadius, players)()
	tag := env.freshTag("zr")
	threshold := env.leafThreshold(alpha)

	// All per-call working memory — tree nodes, shuffled halves, posting
	// scratch — comes from the coordinator arena and is recycled on
	// return; only the returned out rows are heap-allocated.
	sc := &env.scratch
	defer sc.release(sc.mark())

	// Build the recursion tree with public coins.
	coin := env.Public.Stream(tag, 0)
	nextID := 0
	objs := sc.iota(space.Len())
	var build func(ps, os []int, depth int) *zrNode
	var byLevel [][]*zrNode
	build = func(ps, os []int, depth int) *zrNode {
		nd := &sc.nodes.Make(1)[0]
		nd.id = nextID
		nd.depth = depth
		var tb [32]byte
		tbuf := append(tb[:0], tag...)
		tbuf = append(tbuf, '/')
		nd.topic = string(strconv.AppendInt(tbuf, int64(nextID), 10))
		nd.players = ps
		nd.objs = os
		nextID++
		for len(byLevel) <= depth {
			byLevel = append(byLevel, nil)
		}
		byLevel[depth] = append(byLevel[depth], nd)
		if min(len(ps), len(os)) >= threshold {
			pa, pb := splitHalfArena(sc, coin, ps)
			oa, ob := splitHalfArena(sc, coin, os)
			nd.left = build(pa, oa, depth+1)
			nd.right = build(pb, ob, depth+1)
		}
		return nd
	}
	root := build(sc.a.CopyInts(players), objs, 0)

	// childAt[i] tracks the node players[i] most recently completed, so
	// an internal node knows which child the player came from; posOf
	// maps the player id back to i inside phase bodies. The returned
	// flat output is the sole heap allocation (it outlives the call, so
	// it must not be arena-backed); the per-player posting scratch rows
	// are arena-backed and handed out here, before any phase runs, so
	// phase bodies only ever write into pre-published rows.
	posOf := sc.fillPos(env.N, players)
	childAt := sc.nodePtrs.Make(len(players))
	nodeAt := sc.nodePtrs.Make(len(players))
	scratch := sc.u32Lists.Make(len(players))
	width := space.Len()
	flat := make([]uint32, len(players)*width)
	scratchBacking := sc.a.U32s(len(players) * width)
	for i := range players {
		scratch[i] = scratchBacking[i*width : (i+1)*width]
	}

	// Process levels bottom-up. At each level, leaves probe everything
	// they own and post; internal nodes adopt the sibling half's popular
	// vector via Select and post the combined vector.
	//
	// The vote tally over a sibling's postings is identical for every
	// reader (the billboard's deterministic, epoch-cached ValueVotes),
	// so it is computed once per node before the phase rather than once
	// per player — the distributed "scan the billboard" step costs no
	// probes, and recomputing it n times per level would dominate
	// simulation time.
	phasePlayers := sc.a.Ints(len(players))[:0]
	batchSpace, batched := space.(BatchObjectSpace)
	batcher, _ := env.Board.(batchPoster)
	for level := len(byLevel) - 1; level >= 0; level-- {
		env.checkAborted()
		phasePlayers = phasePlayers[:0]
		for _, nd := range byLevel[level] {
			for _, p := range nd.players {
				nodeAt[posOf[p]] = nd
			}
			phasePlayers = append(phasePlayers, nd.players...)
			env.openTopic(nd.topic)
			if batcher != nil {
				nd.ref = batcher.TopicRef(nd.topic)
			}
			if !nd.leaf() {
				for _, child := range [2]*zrNode{nd.left, nd.right} {
					child.cands = popularValueCands(env, child.topic, child, alpha)
				}
			}
		}
		env.phase(phasePlayers, func(p int) {
			i := posOf[p]
			nd := nodeAt[i]
			pl := env.Engine.Player(p)
			row := flat[i*width : (i+1)*width]
			if nd.leaf() {
				// Step 1: probe every object of the node. Leaf probes
				// have no sequential dependency, so a batch-capable
				// space ships them (and their billboard postings) in
				// one batched call.
				vals := scratch[i][:len(nd.objs)]
				if batched {
					batchSpace.ProbeMany(pl, nd.objs, vals)
				} else {
					for j, obj := range nd.objs {
						vals[j] = space.Probe(pl, obj)
					}
				}
				for j, obj := range nd.objs {
					row[obj] = vals[j]
				}
				if batcher == nil {
					env.Board.PostValues(nd.topic, p, vals)
				}
				childAt[i] = nd
				return
			}
			// Step 4: adopt the sibling half's output for its objects.
			mine := childAt[i]
			sib := nd.left
			if sib == mine {
				sib = nd.right
			}
			adoptSibling(pl, space, row, sib, sib.cands)
			childAt[i] = nd
			// Post the combined vector for this node.
			vals := scratch[i][:len(nd.objs)]
			for j, obj := range nd.objs {
				vals[j] = row[obj]
			}
			if batcher == nil {
				env.Board.PostValues(nd.topic, p, vals)
			}
		})
		if batcher != nil {
			// Ship every node's posting burst now that the phase barrier
			// has passed; per-topic posting order (nd.players order) is
			// exactly what the per-player path produced.
			for _, nd := range byLevel[level] {
				if len(nd.players) == 0 {
					continue
				}
				rows := sc.u32Lists.Make(len(nd.players))
				for j, p := range nd.players {
					rows[j] = scratch[posOf[p]][:len(nd.objs)]
				}
				batcher.PostValuesBatchRef(nd.ref, nd.players, rows)
			}
		}
		// Completed child topics are no longer read; free them.
		if level+1 < len(byLevel) {
			for _, nd := range byLevel[level+1] {
				env.dropTopic(nd.topic)
			}
		}
	}
	env.dropTopic(root.topic)
	return flat
}

// popularValueCands tallies a node's posted vectors and returns those
// with at least VoteFrac·alpha·|players| votes (Fig. 2, Step 4's set V),
// falling back to all posted vectors when none is popular enough (the
// premise-violated case Theorem 3.1 does not cover).
func popularValueCands(env *Env, topic string, nd *zrNode, alpha float64) [][]uint32 {
	votes := env.Board.ValueVotes(topic)
	need := int(math.Ceil(alpha * env.Cfg.VoteFrac * float64(len(nd.players))))
	if need < 1 {
		need = 1
	}
	var cands [][]uint32
	for _, v := range votes {
		if v.Count >= need {
			cands = append(cands, v.Vals)
		}
	}
	if len(cands) == 0 {
		for _, v := range votes {
			cands = append(cands, v.Vals)
		}
	}
	return cands
}

// adoptSibling performs Fig. 2's Step 4 for one player: run Select with
// distance bound 0 over the sibling's popular vectors and write the
// winner into dst at the sibling's object positions.
func adoptSibling(pl *probe.Player, space ObjectSpace, dst []uint32, sib *zrNode, cands [][]uint32) {
	if len(cands) == 0 {
		return // sibling posted nothing (empty node); leave zeros
	}
	probeVal := func(t int) uint32 { return space.Probe(pl, sib.objs[t]) }
	win := cands[selectValuesScratch(pl.Arena(), probeVal, cands, 0)]
	for j, obj := range sib.objs {
		dst[obj] = win[j]
	}
}

// ZeroRadiusBits runs ZeroRadius over real binary objects and returns
// each participating player's output as a bit slice aligned with objs.
func ZeroRadiusBits(env *Env, players []int, objs []int, alpha float64) [][]uint32 {
	return ZeroRadius(env, players, BinarySpace{Objs: objs}, alpha)
}

// zeroRadiusBitsFlat is ZeroRadiusBits with zeroRadiusFlat's packed
// positional output (players[i]'s bits at [i*len(objs), (i+1)*len(objs))).
func zeroRadiusBitsFlat(env *Env, players []int, objs []int, alpha float64) []uint32 {
	return zeroRadiusFlat(env, players, BinarySpace{Objs: objs}, alpha)
}
