// Package hierarchy provides the item vocabulary and the forest-shaped item
// hierarchy used by generalized sequence mining (GSM). Items are interned to
// dense uint32 ids; each item has at most one parent (the hierarchy is a
// forest, per §2 of the LASH paper). The package offers constant-time parent
// lookup, ancestor iteration, level queries, and — via DFS interval labels —
// constant-time descendant tests.
package hierarchy

import (
	"fmt"
	"math"
)

// Item is a dense vocabulary identifier. Valid items are 0..Size()-1.
type Item uint32

// NoItem marks the absence of an item (e.g. "no parent").
const NoItem Item = math.MaxUint32

// Forest is an immutable item hierarchy over an interned vocabulary.
// Build one with a Builder. The zero value is an empty forest.
type Forest struct {
	names  []string
	byName map[string]Item
	parent []Item
	level  []int32 // depth from root; roots have level 0
	// DFS interval labels: u is a descendant-or-self of v iff
	// begin[v] <= begin[u] && end[u] <= end[v].
	begin []int32
	end   []int32
	depth int // number of levels = max level + 1 (0 for empty forest)
}

// Size returns the number of interned items.
func (f *Forest) Size() int { return len(f.names) }

// Name returns the external name of item w.
func (f *Forest) Name(w Item) string {
	if int(w) >= len(f.names) {
		return fmt.Sprintf("item#%d", uint32(w))
	}
	return f.names[w]
}

// Lookup returns the item interned under name, if any.
func (f *Forest) Lookup(name string) (Item, bool) {
	w, ok := f.byName[name]
	return w, ok
}

// Parent returns the parent of w, or NoItem if w is a root.
func (f *Forest) Parent(w Item) Item { return f.parent[w] }

// Level returns the depth of w: 0 for roots, parent level + 1 otherwise.
func (f *Forest) Level(w Item) int { return int(f.level[w]) }

// Depth returns the number of hierarchy levels (max level + 1).
// A "flat" vocabulary (all roots) has depth 1; an empty forest, depth 0.
func (f *Forest) Depth() int { return f.depth }

// IsRoot reports whether w has no parent.
func (f *Forest) IsRoot(w Item) bool { return f.parent[w] == NoItem }

// GeneralizesTo reports whether u →* v, i.e. v is an ancestor of u or v == u.
// Runs in O(1) using DFS interval labels.
func (f *Forest) GeneralizesTo(u, v Item) bool {
	return f.begin[v] <= f.begin[u] && f.end[u] <= f.end[v]
}

// Ancestors appends the proper ancestors of w (parent first, root last) to
// dst and returns the extended slice.
func (f *Forest) Ancestors(dst []Item, w Item) []Item {
	for p := f.parent[w]; p != NoItem; p = f.parent[p] {
		dst = append(dst, p)
	}
	return dst
}

// SelfAndAncestors appends w followed by its proper ancestors to dst.
func (f *Forest) SelfAndAncestors(dst []Item, w Item) []Item {
	dst = append(dst, w)
	return f.Ancestors(dst, w)
}

// Stats summarizes the shape of a hierarchy, mirroring Table 2 of the paper.
type Stats struct {
	TotalItems        int
	LeafItems         int
	RootItems         int
	IntermediateItems int
	Levels            int
	AvgFanOut         float64 // mean number of children over items with children
	MaxFanOut         int
}

// ComputeStats derives the Table-2 style shape statistics of the forest.
func (f *Forest) ComputeStats() Stats {
	s := Stats{TotalItems: f.Size(), Levels: f.depth}
	fan := make([]int, f.Size())
	for c, p := range f.parent {
		_ = c
		if p != NoItem {
			fan[p]++
		}
	}
	parents := 0
	totalFan := 0
	for w := 0; w < f.Size(); w++ {
		isRoot := f.parent[w] == NoItem
		isLeaf := fan[w] == 0
		switch {
		case isRoot:
			s.RootItems++
		case isLeaf:
			s.LeafItems++
		default:
			s.IntermediateItems++
		}
		if fan[w] > 0 {
			parents++
			totalFan += fan[w]
			if fan[w] > s.MaxFanOut {
				s.MaxFanOut = fan[w]
			}
		}
	}
	if parents > 0 {
		s.AvgFanOut = float64(totalFan) / float64(parents)
	}
	return s
}

// Builder incrementally interns items and parent edges, then Build()s an
// immutable Forest. Adding an item twice is idempotent; re-parenting an item
// is an error surfaced by Build.
type Builder struct {
	names   []string
	byName  map[string]Item
	parent  []Item
	reparnt []string // re-parenting conflicts, reported by Build
}

// NewBuilder returns an empty hierarchy builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[string]Item)}
}

// Add interns name (as a root, unless a later AddEdge gives it a parent) and
// returns its item id.
func (b *Builder) Add(name string) Item {
	if w, ok := b.byName[name]; ok {
		return w
	}
	w := Item(len(b.names))
	b.names = append(b.names, name)
	b.parent = append(b.parent, NoItem)
	b.byName[name] = w
	return w
}

// AddEdge interns child and parent and records child → parent. A second edge
// with a different parent for the same child is recorded as a conflict and
// reported by Build (the hierarchy must be a forest).
func (b *Builder) AddEdge(child, parent string) {
	c := b.Add(child)
	p := b.Add(parent)
	if b.parent[c] != NoItem && b.parent[c] != p {
		b.reparnt = append(b.reparnt, child)
		return
	}
	b.parent[c] = p
}

// Build validates the structure (forest shape, no cycles) and returns the
// immutable Forest.
func (b *Builder) Build() (*Forest, error) {
	if len(b.reparnt) > 0 {
		return nil, fmt.Errorf("hierarchy: item %q has more than one parent (forest required)", b.reparnt[0])
	}
	n := len(b.names)
	f := &Forest{
		names:  append([]string(nil), b.names...),
		byName: make(map[string]Item, n),
		parent: append([]Item(nil), b.parent...),
		level:  make([]int32, n),
		begin:  make([]int32, n),
		end:    make([]int32, n),
	}
	for name, w := range b.byName {
		f.byName[name] = w
	}
	// Levels + cycle detection: walk each unresolved parent chain upward,
	// marking nodes in-progress; meeting an in-progress node is a cycle.
	const unset, inProgress = int32(-1), int32(-2)
	for i := range f.level {
		f.level[i] = unset
	}
	var chain []Item
	for w := 0; w < n; w++ {
		if f.level[w] >= 0 {
			continue
		}
		chain = chain[:0]
		u := Item(w)
		resolved := NoItem // first already-resolved ancestor, if any
		for {
			if f.level[u] == inProgress {
				return nil, fmt.Errorf("hierarchy: cycle detected at item %q", f.names[u])
			}
			if f.level[u] >= 0 {
				resolved = u
				break
			}
			f.level[u] = inProgress
			chain = append(chain, u)
			p := f.parent[u]
			if p == NoItem {
				break
			}
			u = p
		}
		base := int32(-1)
		if resolved != NoItem {
			base = f.level[resolved]
		}
		for i := len(chain) - 1; i >= 0; i-- {
			base++
			f.level[chain[i]] = base
		}
	}
	var roots []Item
	for w := 0; w < n; w++ {
		if int(f.level[w])+1 > f.depth {
			f.depth = int(f.level[w]) + 1
		}
		if f.parent[w] == NoItem {
			roots = append(roots, Item(w))
		}
	}
	// DFS interval labels. Children grouped per parent first.
	kids := make([][]Item, n)
	for c := 0; c < n; c++ {
		if p := f.parent[c]; p != NoItem {
			kids[p] = append(kids[p], Item(c))
		}
	}
	timer := int32(0)
	// Iterative DFS from every root.
	type frame struct {
		node Item
		next int
	}
	var stack []frame
	for _, r := range roots {
		stack = append(stack[:0], frame{r, 0})
		f.begin[r] = timer
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			ks := kids[top.node]
			if top.next < len(ks) {
				c := ks[top.next]
				top.next++
				timer++
				f.begin[c] = timer
				stack = append(stack, frame{c, 0})
			} else {
				f.end[top.node] = timer
				stack = stack[:len(stack)-1]
			}
		}
		timer++
	}
	return f, nil
}

// Flat builds a forest with the given item names and no edges (every item a
// root). Useful for sequence mining without hierarchies (MG-FSM mode).
func Flat(names []string) *Forest {
	b := NewBuilder()
	for _, n := range names {
		b.Add(n)
	}
	f, err := b.Build()
	if err != nil { // cannot happen: no edges
		panic(err)
	}
	return f
}
