package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// Fact is a typed, analyzer-defined piece of knowledge attached to a
// types.Object while a package is analyzed, and visible to every later
// analysis of a package that imports it. Facts are how paralint's two
// dataflow rules reason across package boundaries: lockorder exports a
// LockSet fact on each function that acquires locks, so a caller in another
// package adds those acquisitions to the lock graph, and ctxflow exports a
// CtxAware fact on each function that can block uncancellably, so a scoped
// caller is reported at its call site.
//
// Fact types must be pointers to structs. Each analyzer declares the fact
// types it exports in Analyzer.FactTypes.
type Fact interface {
	// AFact marks the type as a paralint fact.
	AFact()
}

// FactBase stores object facts for one analysis run. Packages are analyzed
// in dependency order (in parallel across independent packages), so by the
// time a package is analyzed every fact of its dependencies is present. The
// store is safe for concurrent use.
//
// Fact lookup is by object identity, which works because the driver
// type-checks every in-module package from source exactly once and reuses
// the same *types.Package as the import of every dependent — the
// types.Object a consumer resolves is the very object the defining package
// exported the fact on.
type FactBase struct {
	// graph is the whole-program lock-acquisition graph (lockorder
	// analyzer). Object facts answer "what does this function acquire?";
	// the graph answers "in what order?" — a global property no single
	// object carries, so it lives here beside the facts. Edges accumulate
	// as packages are analyzed; cycle detection runs once over the complete
	// graph in a deterministic finalizer (see lockOrderCycles).
	graph lockGraph

	mu    sync.RWMutex
	facts map[types.Object]map[reflect.Type]Fact
}

// lockGraph is the lockorder analyzer's shared acquisition graph, with its
// own lock so edge recording never contends with fact lookups.
type lockGraph struct {
	mu             sync.Mutex
	edges          map[string]lockEdge // keyed by From\x00To\x00Pos
	ranks          map[string]lockRankDecl
	reportedCycles map[string]bool
}

// lockEdge records that the To lock class was acquired (directly or through
// a call) at Pos while a lock of the From class was held.
type lockEdge struct {
	From, To string
	Pos      token.Position
	// Allowed records whether a //paralint:allow lockorder directive covered
	// the acquisition site, so the finalizer honours suppressions it cannot
	// look up itself (per-package allow indexes are gone by then).
	Allowed bool
}

// lockRankDecl is a //paralint:lockrank declaration on a mutex field or
// package-level mutex variable.
type lockRankDecl struct {
	Rank int
	Pos  token.Position
}

// NewFactBase returns an empty fact store.
func NewFactBase() *FactBase {
	return &FactBase{
		graph: lockGraph{
			edges:          make(map[string]lockEdge),
			ranks:          make(map[string]lockRankDecl),
			reportedCycles: make(map[string]bool),
		},
		facts: make(map[types.Object]map[reflect.Type]Fact),
	}
}

// addLockEdge records one acquisition-order edge, deduplicating repeats (the
// in-package test variant re-analyzes the pure files and rediscovers their
// edges at identical positions).
func (fb *FactBase) addLockEdge(e lockEdge) {
	key := e.From + "\x00" + e.To + "\x00" + e.Pos.String()
	g := &fb.graph
	g.mu.Lock()
	if _, ok := g.edges[key]; !ok {
		g.edges[key] = e
	}
	g.mu.Unlock()
}

// sortedLockEdges returns the accumulated graph in deterministic order.
func (fb *FactBase) sortedLockEdges() []lockEdge {
	g := &fb.graph
	g.mu.Lock()
	edges := make([]lockEdge, 0, len(g.edges))
	for _, e := range g.edges {
		edges = append(edges, e)
	}
	g.mu.Unlock()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Pos.String() < edges[j].Pos.String()
	})
	return edges
}

// setLockRank registers a declared lock rank. Ranks are declared in the
// package that declares the mutex, which the dependency-ordered driver
// analyzes before any acquirer, so rank lookups at edge-recording time are
// deterministic.
func (fb *FactBase) setLockRank(key string, rank int, pos token.Position) {
	g := &fb.graph
	g.mu.Lock()
	g.ranks[key] = lockRankDecl{Rank: rank, Pos: pos}
	g.mu.Unlock()
}

// lockRank looks up a declared rank for a lock class.
func (fb *FactBase) lockRank(key string) (int, bool) {
	g := &fb.graph
	g.mu.Lock()
	d, ok := g.ranks[key]
	g.mu.Unlock()
	return d.Rank, ok
}

// markCycleReported records a canonical cycle key, reporting whether it was
// already reported (finalizers may run more than once on a shared store).
func (fb *FactBase) markCycleReported(key string) bool {
	g := &fb.graph
	g.mu.Lock()
	seen := g.reportedCycles[key]
	g.reportedCycles[key] = true
	g.mu.Unlock()
	return seen
}

func (fb *FactBase) set(obj types.Object, f Fact) {
	t := reflect.TypeOf(f)
	if t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("lint: fact %T must be a pointer to a struct", f))
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	byType := fb.facts[obj]
	if byType == nil {
		byType = make(map[reflect.Type]Fact)
		fb.facts[obj] = byType
	}
	byType[t] = f
}

func (fb *FactBase) get(obj types.Object, ptr Fact) bool {
	t := reflect.TypeOf(ptr)
	if t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("lint: fact %T must be a pointer to a struct", ptr))
	}
	fb.mu.RLock()
	f, ok := fb.facts[obj][t]
	fb.mu.RUnlock()
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// ExportObjectFact attaches f to obj for consumption by the analysis of any
// package that imports the current one (and by later analyzers of the same
// package).
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || p.facts == nil {
		return
	}
	p.facts.set(obj, f)
}

// ImportObjectFact copies the fact of ptr's type attached to obj into ptr,
// reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil || p.facts == nil {
		return false
	}
	return p.facts.get(obj, ptr)
}
