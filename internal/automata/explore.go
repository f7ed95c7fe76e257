package automata

import "slices"

// Explorer is the one breadth-first search under the product
// constructions and decision procedures of this tree: Product,
// ContainsDet and IsUnambiguous here, and internal/core's disjointness,
// locality, cover and split-correctness searches and its builders. A
// configuration is a short int32 vector — a tuple of states plus a few
// flags — interned in a SetTable in first-seen order, so a
// configuration's id is its index in the breadth-first queue: a search
// visits its start, then walks ids 0, 1, 2, … while Len grows, and a
// builder's output state is the configuration's id.
//
// The zero value is an empty, unbounded search. Not safe for concurrent
// use.
type Explorer struct {
	// Limit bounds the configurations a search may add; ≤ 0 means no
	// bound.
	Limit int
	// Trace keeps, per configuration, the link it was first reached by,
	// so Path can return the symbols leading to it.
	Trace bool

	set   SetTable
	links []link
}

type link struct{ from, sym int32 }

// Len returns the number of configurations visited so far.
func (x *Explorer) Len() int { return x.set.Len() }

// Config returns configuration id. The slice aliases the explorer's
// storage, which Visit may grow: copy the fields out before visiting.
func (x *Explorer) Config(id int32) []int32 { return x.set.Set(id) }

// Visit returns the id of cfg, adding it when it is new, and whether it
// was. It fails with ErrTooLarge when a new configuration would exceed
// Limit; the search is over then. Without a Limit it cannot fail, so an
// uncapped search drops the error.
func (x *Explorer) Visit(cfg ...int32) (id int32, added bool, err error) {
	return x.Step(-1, -1, cfg...)
}

// Step is Visit for a configuration reached from configuration from on
// symbol sym; with Trace set, a new configuration keeps that link.
func (x *Explorer) Step(from, sym int32, cfg ...int32) (id int32, added bool, err error) {
	if x.set.slots == nil { // one allocation each for the first 32
		x.set = SetTable{flat: make([]int32, 0, 32*len(cfg)), end: make([]int, 0, 32)}
		x.set.Reset(32)
	}
	id, added = x.set.Intern(cfg)
	if !added {
		return id, false, nil
	}
	if x.Limit > 0 && x.set.Len() > x.Limit {
		return id, true, ErrTooLarge
	}
	if x.Trace {
		x.links = append(x.links, link{from, sym})
	}
	return id, true, nil
}

// Path returns the symbols on the links from the configuration Visit
// added to id, in order. It needs Trace.
func (x *Explorer) Path(id int32) []int {
	var w []int
	for ; x.links[id].from >= 0; id = x.links[id].from {
		w = append(w, int(x.links[id].sym))
	}
	slices.Reverse(w)
	return w
}
