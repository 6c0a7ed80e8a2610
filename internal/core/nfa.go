package core

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/bits"
	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
)

// NFAEngine evaluates paths containing the descendant operator `..`
// (the paper's stated future work, §5.1). A descendant step matches at
// an unknown level, so the matcher is a set-of-states NFA rather than a
// single-state DFA, and — as the paper argues — type inference and the
// G1/G4 fast-forward groups do not apply: a live descendant state can
// match arbitrarily deep, so no subtree is provably irrelevant unless
// the whole state set dies.
//
// The engine runs as a stepper policy over the shared driver: the state
// handed down into each value is the NFA state-set bitmask, and the
// driver G2-skips whole values whenever the set going into them is empty
// — which for paths with non-descendant prefixes (e.g. $.store..price)
// recovers real skipping outside the prefix. Dead attribute values are
// charged to G2 and dead array elements to G5, the same accounting as
// the DFA engine.
type NFAEngine struct {
	cursor
	steps []jsonpath.Step
}

// NewNFAEngine creates an NFA engine for the path. Paths are limited to
// 62 steps (the state set is a uint64 bitmask), and every step must be
// streamable and filter-free: filter probes are a DFA-policy feature,
// so Compile splits mixed descendant+filter paths instead of routing
// them here (jsonpath.Path.SplitPoint).
func NewNFAEngine(p *jsonpath.Path) (*NFAEngine, error) {
	if len(p.Steps) > 62 {
		return nil, fmt.Errorf("core: path too long for NFA evaluation (%d steps)", len(p.Steps))
	}
	for i, st := range p.Steps {
		if !st.Streamable() || st.Kind == jsonpath.Filter {
			return nil, fmt.Errorf("core: step %d (%s) is not NFA-evaluable", i, st.Kind)
		}
	}
	return &NFAEngine{steps: p.Steps}, nil
}

// stateSet is a bitmask of NFA states; bit len(steps) is the accept bit.
type stateSet = uint64

func (e *NFAEngine) acceptBit() stateSet { return 1 << uint(len(e.steps)) }

// Run evaluates the path over one record.
func (e *NFAEngine) Run(data []byte, emit EmitFunc) (Stats, error) {
	e.prepare(data)
	return e.finish(emit, int64(len(data)))
}

// RunIndexed evaluates the path over a prebuilt structural index. The
// NFA engine tokenizes far more of the input than the DFA engine (no
// type-based fast-forwarding below a descendant), so borrowing the
// word masks pays off even more per repeated document. The caller must
// hold a reference on ix for the duration of the call.
func (e *NFAEngine) RunIndexed(ix *stream.Index, emit EmitFunc) (Stats, error) {
	e.prepareIndexed(ix)
	return e.finish(emit, int64(ix.Len()))
}

// RunIndexedWindow evaluates the path over the single JSON value in
// [lo, hi) of ix's buffer, in parity with the DFA engine, so NFA
// queries can run over shared-index shards. Emitted positions are
// absolute within the full buffer.
func (e *NFAEngine) RunIndexedWindow(ix *stream.Index, lo, hi int, emit EmitFunc) (Stats, error) {
	e.prepareWindow(ix, lo, hi)
	return e.finish(emit, int64(hi-lo))
}

func (e *NFAEngine) finish(emit EmitFunc, inputBytes int64) (Stats, error) {
	e.begin(emit)
	err := e.run()
	return e.stats(inputBytes), err
}

func (e *NFAEngine) run() error {
	s := e.s
	b, ok := s.SkipWS()
	if !ok {
		return fmt.Errorf("core: empty input")
	}
	start := s.Pos()
	set := stateSet(1) // state 0: no steps matched yet
	if len(e.steps) == 0 {
		set = e.acceptBit()
	}
	rest := set &^ e.acceptBit()
	switch b {
	case '{':
		if err := driveValue[stateSet, stateSet](&e.cursor, e, jsonpath.Object, rest, false); err != nil {
			return err
		}
	case '[':
		if err := driveValue[stateSet, stateSet](&e.cursor, e, jsonpath.Array, rest, false); err != nil {
			return err
		}
	case '"':
		if err := s.SkipString(); err != nil {
			return err
		}
	default:
		s.SkipPrimitive()
	}
	if set&e.acceptBit() != 0 {
		e.emitSpan(start, s.Pos())
	}
	return nil
}

// nextSetKey applies the [Key] transitions to every state in the set.
func (e *NFAEngine) nextSetKey(set stateSet, key []byte) stateSet {
	var out stateSet
	for s := set; s != 0; s &= s - 1 {
		q := bits.TrailingZeros(s)
		if q >= len(e.steps) {
			continue // accept state has no outgoing transitions
		}
		st := &e.steps[q]
		switch st.Kind {
		case jsonpath.Child:
			if automaton.KeyEqual(key, st.Name) {
				out |= 1 << uint(q+1)
			}
		case jsonpath.Wildcard:
			out |= 1 << uint(q+1) // `*` selects members and elements alike
		case jsonpath.Descendant:
			out |= 1 << uint(q) // a descendant survives any descent
			switch sel := &st.Sel[0]; sel.Kind {
			case jsonpath.Child:
				if automaton.KeyEqual(key, sel.Name) {
					out |= 1 << uint(q+1)
				}
			case jsonpath.Wildcard:
				out |= 1 << uint(q+1)
			}
		}
	}
	return out
}

// nextSetIndex applies the array-element transitions.
func (e *NFAEngine) nextSetIndex(set stateSet, idx int) stateSet {
	var out stateSet
	for s := set; s != 0; s &= s - 1 {
		q := bits.TrailingZeros(s)
		if q >= len(e.steps) {
			continue
		}
		st := &e.steps[q]
		switch st.Kind {
		case jsonpath.Index, jsonpath.Slice, jsonpath.Wildcard:
			if automaton.IndexMatches(st, idx) {
				out |= 1 << uint(q+1)
			}
		case jsonpath.Descendant:
			out |= 1 << uint(q)
			switch sel := &st.Sel[0]; sel.Kind {
			case jsonpath.Index, jsonpath.Slice, jsonpath.Wildcard:
				if automaton.IndexMatches(sel, idx) {
					out |= 1 << uint(q+1)
				}
			}
		}
	}
	return out
}

// ---- stepper policy: the frame is the state set itself ----

func (e *NFAEngine) enterObject(set stateSet) (stateSet, jsonpath.ValueType, bool) {
	// Below a descendant no type is provable: G1 stays off (Unknown).
	return set, jsonpath.Unknown, set != 0
}

func (e *NFAEngine) enterArray(set stateSet) (stateSet, jsonpath.ValueType, int, int, bool, bool) {
	return set, jsonpath.Unknown, 0, 0, false, set != 0
}

// dispatchSet converts a transition result into the driver action: the
// accept bit emits, surviving states descend, both at once do both.
func (e *NFAEngine) dispatchSet(next stateSet) (stateSet, action) {
	rest := next &^ e.acceptBit()
	accept := next&e.acceptBit() != 0
	switch {
	case accept && rest != 0:
		return rest, actDescendOutput
	case accept:
		return rest, actOutput
	case rest == 0:
		return rest, actSkip
	default:
		return rest, actDescend
	}
}

func (e *NFAEngine) matchKey(set stateSet, name []byte) (child stateSet, act action, done bool) {
	child, act = e.dispatchSet(e.nextSetKey(set, name))
	return child, act, false // G4 never applies: the set outlives any match
}

func (e *NFAEngine) matchIndex(set stateSet, idx int) (child stateSet, act action) {
	return e.dispatchSet(e.nextSetIndex(set, idx))
}

// resolveProbe is unreachable: NewNFAEngine rejects filter steps, so no
// transition ever yields a Candidate.
func (e *NFAEngine) resolveProbe(stateSet, jsonpath.ValueType, int, int, fastforward.Group) error {
	return fmt.Errorf("core: NFA policy has no filter probes")
}

// stateID renders the live state-set bitmask (not a single DFA state)
// into explain-trace events.
func (e *NFAEngine) stateID(set stateSet) int { return int(set) }
