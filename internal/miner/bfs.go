package miner

import (
	"slices"

	"lash/internal/flist"
)

// BFS is a hierarchy-aware adaptation of SPADE (§5.1 of the paper). It keeps
// a vertical representation of the partition: posting lists mapping each
// pattern to the sequences it occurs in together with the occurrence end
// positions. Length-2 patterns are seeded by scanning G2(T) for every
// sequence T (this is the hierarchy-aware step); longer candidates are
// generated GSP-style — candidate S·a requires both its length-l prefix and
// suffix to be frequent — and counted with a gap-constrained temporal join
// of posting(S) with the single-item posting of a.
//
// Patterns are interned into a per-level rank-slice table (ids assigned in
// generation order, postings flattened); the per-occurrence string keys of
// the original formulation are gone — the only remaining per-pattern
// allocation is the interning key itself, paid once per distinct pattern.
// Each level emits its frequent patterns in rank-lexicographic order.
type BFS struct{}

// bfsScratch is the reusable BFS state inside Scratch.
type bfsScratch struct {
	items      postTable // hierarchy-aware single-item postings
	f1         []flist.Rank
	f1set      []bool
	cur        bfsLevel
	next       bfsLevel
	keyBuf     []byte
	seedPrefix [1]flist.Rank
	joinBuf    bfsPosting
	emitIDs    []int32
	anc, anc2  []flist.Rank // seedLevel2's two generalization chains
}

// bfsLevel interns the candidate patterns of one level: pattern id i has
// ranks pats[i*l:(i+1)*l] and flattened posting posts[i].
type bfsLevel struct {
	l     int
	n     int
	pats  []flist.Rank
	ids   map[string]int32
	posts []bfsPosting
}

func (lv *bfsLevel) reset(l int) {
	lv.l = l
	lv.n = 0
	lv.pats = lv.pats[:0]
	if lv.ids == nil {
		lv.ids = make(map[string]int32)
	} else {
		clear(lv.ids)
	}
}

func (lv *bfsLevel) pat(id int32) []flist.Rank {
	return lv.pats[int(id)*lv.l : (int(id)+1)*lv.l]
}

// lookup resolves an interned pattern by its key bytes without allocating.
func (lv *bfsLevel) lookup(key []byte) (int32, bool) {
	id, ok := lv.ids[string(key)]
	return id, ok
}

// getOrAdd interns the pattern encoded in key (ranks pat·last), resetting
// the posting row of a newly created id.
func (lv *bfsLevel) getOrAdd(key []byte, pat []flist.Rank, last flist.Rank) int32 {
	if id, ok := lv.ids[string(key)]; ok {
		return id
	}
	id := int32(lv.n)
	lv.ids[string(key)] = id
	lv.pats = append(lv.pats, pat...)
	lv.pats = append(lv.pats, last)
	if lv.n == len(lv.posts) {
		lv.posts = append(lv.posts, bfsPosting{})
	}
	p := &lv.posts[lv.n]
	p.support = 0
	p.tids = p.tids[:0]
	p.offs = p.offs[:0]
	p.ends = p.ends[:0]
	lv.n++
	return id
}

// bfsPosting is a flattened vertical posting list (see postList); offs
// carries the closing sentinel once the posting is sealed.
type bfsPosting struct {
	support int64
	tids    []int32
	offs    []int32
	ends    []int32
}

func (p *bfsPosting) add(tid int32, w int64, q int32) {
	if n := len(p.tids); n == 0 || p.tids[n-1] != tid {
		p.tids = append(p.tids, tid)
		p.offs = append(p.offs, int32(len(p.ends)))
		p.support += w
	}
	p.ends = append(p.ends, q)
}

// appendRankKey appends the 4-byte interning key of a rank.
func appendRankKey(b []byte, r flist.Rank) []byte {
	return append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
}

// Mine implements Miner.
func (BFS) Mine(p *Partition, cfg Config, sc *Scratch, emit Emit) Stats {
	if sc == nil {
		sc = NewScratch()
	}
	//lashvet:ignore emitgo bfsRun is call-scoped traversal state; Mine returns before the struct is released and emit never crosses a goroutine
	b := &bfsRun{walk: walk{p: p, cfg: cfg, bound: cfg.bound(p), sc: sc, n: maxRankPlus1(p)}, emit: emit}
	b.run()
	return b.stats
}

type bfsRun struct {
	walk
	emit  Emit
	stats Stats
}

func (b *bfsRun) run() {
	bs := &b.sc.bfs
	// Hierarchy-aware single-item postings; they stay valid (and are joined
	// against) for the whole run.
	items := b.itemPostings(&bs.items)
	// Frequent single items, in rank order.
	bs.f1 = bs.f1[:0]
	if len(bs.f1set) < b.n {
		bs.f1set = append(bs.f1set, make([]bool, b.n-len(bs.f1set))...)
	}
	clear(bs.f1set[:b.n])
	for _, a := range items {
		b.stats.Explored++
		if bs.items.rows[a].support >= b.cfg.Sigma {
			bs.f1 = append(bs.f1, a)
			bs.f1set[a] = true
		}
	}
	if b.cfg.Lambda < 2 || len(bs.f1) == 0 {
		return
	}

	// Level 2: seed postings from G2(T) scans.
	level := &bs.cur
	b.seedLevel2(level)
	b.emitLevel(level)

	// Levels 3..λ: GSP-style candidate generation + temporal joins.
	next := &bs.next
	for l := 3; l <= b.cfg.Lambda && level.n > 0; l++ {
		next.reset(l)
		for id := int32(0); int(id) < level.n; id++ {
			pl := &level.posts[id]
			if pl.support < b.cfg.Sigma {
				continue
			}
			prefix := level.pat(id)
			for _, a := range bs.f1 {
				// Apriori: the suffix extended by a must be frequent.
				key := appendRanksKey(bs.keyBuf[:0], prefix[1:])
				key = appendRankKey(key, a)
				bs.keyBuf = key
				sid, ok := level.lookup(key)
				if !ok || level.posts[sid].support < b.cfg.Sigma {
					continue
				}
				b.join(pl, bs.items.rows[a].list(), &bs.joinBuf)
				b.stats.Explored++
				if bs.joinBuf.support >= b.cfg.Sigma {
					key = appendRanksKey(bs.keyBuf[:0], prefix)
					key = appendRankKey(key, a)
					bs.keyBuf = key
					nid := next.getOrAdd(key, prefix, a)
					next.posts[nid], bs.joinBuf = bs.joinBuf, next.posts[nid]
				}
			}
		}
		level, next = next, level
		b.emitLevel(level)
	}
}

func appendRanksKey(b []byte, rs []flist.Rank) []byte {
	for _, r := range rs {
		b = appendRankKey(b, r)
	}
	return b
}

// SelfAnc appends r and its ancestors (via the rank-parent table) to dst.
func (p *Partition) SelfAnc(dst []flist.Rank, r flist.Rank) []flist.Rank {
	for r != flist.NoRank {
		dst = append(dst, r)
		if int(r) >= len(p.Parent) {
			break
		}
		r = p.Parent[r]
	}
	return dst
}

// seedLevel2 scans each sequence for G2(T): all generalized 2-subsequences
// within the gap constraint whose items are locally frequent.
func (b *bfsRun) seedLevel2(lv *bfsLevel) {
	bs := &b.sc.bfs
	lv.reset(2)
	gamma := b.cfg.Gamma
	for tid, ws := range b.p.Seqs {
		seq := ws.Items
		for i := 0; i < len(seq); i++ {
			if seq[i] == flist.NoRank {
				continue
			}
			hi := i + 1 + gamma
			if hi >= len(seq) {
				hi = len(seq) - 1
			}
			for j := i + 1; j <= hi; j++ {
				if seq[j] == flist.NoRank {
					continue
				}
				bs.anc = b.p.SelfAnc(bs.anc[:0], seq[i])
				bs.anc2 = b.p.SelfAnc(bs.anc2[:0], seq[j])
				for _, u := range bs.anc {
					if !bs.f1set[u] {
						continue
					}
					for _, v := range bs.anc2 {
						if !bs.f1set[v] {
							continue
						}
						key := appendRankKey(appendRankKey(bs.keyBuf[:0], u), v)
						bs.keyBuf = key
						bs.seedPrefix[0] = u
						id := lv.getOrAdd(key, bs.seedPrefix[:], v) // pat = u·v
						lv.posts[id].add(int32(tid), ws.Weight, int32(j))
					}
				}
			}
		}
	}
	// The scan can record the same end twice (different first positions);
	// sort + dedupe each entry, seal the offsets, then account one
	// exploration per candidate.
	for id := 0; id < lv.n; id++ {
		b.stats.Explored++
		p := &lv.posts[id]
		ends := p.ends
		w := int32(0)
		for i := range p.tids {
			lo := p.offs[i]
			hi := int32(len(ends))
			if i+1 < len(p.offs) {
				hi = p.offs[i+1]
			}
			region := ends[lo:hi]
			slices.Sort(region)
			p.offs[i] = w
			for k := range region {
				if k > 0 && region[k] == region[k-1] {
					continue
				}
				ends[w] = region[k]
				w++
			}
		}
		p.ends = ends[:w]
		p.offs = append(p.offs, w)
	}
}

// join computes the posting of pattern S·a from posting(S) and the item
// posting of a into out: an occurrence of S ending at e extends to one
// ending at q when 0 < q−e ≤ γ+1.
func (b *bfsRun) join(pl *bfsPosting, item postList, out *bfsPosting) {
	out.support = 0
	out.tids = out.tids[:0]
	out.offs = out.offs[:0]
	out.ends = out.ends[:0]
	gamma := int32(b.cfg.Gamma)
	i, j := 0, 0
	for i < len(pl.tids) && j < len(item.tids) {
		switch {
		case pl.tids[i] < item.tids[j]:
			i++
		case pl.tids[i] > item.tids[j]:
			j++
		default:
			start := int32(len(out.ends))
			pe := pl.ends[pl.offs[i]:pl.offs[i+1]]
			ei := 0
			for _, q := range item.ends[item.offs[j]:item.offs[j+1]] {
				// Advance past ends too far left to reach q.
				for ei < len(pe) && q-pe[ei] > gamma+1 {
					ei++
				}
				if ei < len(pe) && pe[ei] < q {
					out.ends = append(out.ends, q)
				}
			}
			if int32(len(out.ends)) > start {
				out.tids = append(out.tids, pl.tids[i])
				out.offs = append(out.offs, start)
				out.support += b.p.Seqs[pl.tids[i]].Weight
			}
			i++
			j++
		}
	}
	out.offs = append(out.offs, int32(len(out.ends)))
}

// emitLevel outputs the frequent patterns of a level in rank-lexicographic
// order.
func (b *bfsRun) emitLevel(lv *bfsLevel) {
	bs := &b.sc.bfs
	bs.emitIDs = bs.emitIDs[:0]
	for id := int32(0); int(id) < lv.n; id++ {
		if lv.posts[id].support >= b.cfg.Sigma {
			bs.emitIDs = append(bs.emitIDs, id)
		}
	}
	slices.SortFunc(bs.emitIDs, func(a, c int32) int {
		return slices.Compare(lv.pat(a), lv.pat(c))
	})
	for _, id := range bs.emitIDs {
		pat := lv.pat(id)
		if b.cfg.PivotOnly && !ContainsPivot(pat, b.p.Pivot) {
			continue
		}
		b.emit(pat, lv.posts[id].support)
		b.stats.Output++
	}
}
