package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"jsonski/internal/automaton"
	"jsonski/internal/bits"
	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
)

// This file adds speculative parallelism to the JSONSki engine itself —
// the paper's stated future work ("we expect the slowdown would be
// addressed after speculation is added to JSONSki", §5.2; Table 3 lists
// speculation as the one feature JSONSki lacks).
//
// A single large record is evaluated in four phases, all built on the
// same bit-parallel substrate as the serial engine:
//
//	1. (serial, cheap) the engine resolves the query's leading child
//	   steps to reach the dominant top-level array;
//	2. (parallel) word-aligned chunks run the bit-parallel classification
//	   pipeline under *speculated* string state — each chunk assumes no
//	   pending escape and records both string-polarity outcomes;
//	3. (serial, O(#chunks)) states stitch: escape carries, string
//	   polarity, and absolute depth per chunk; mispredicted chunks
//	   re-scan (the misspeculation penalty);
//	4. (parallel) chunks re-scan with known state to locate the
//	   array's element boundaries, and workers evaluate the remaining
//	   path over disjoint elements with per-worker engines.
//
// Speculation only pays on multi-core hosts; the mechanisms are
// differentially tested against the serial engine regardless.

// ParallelEngine evaluates one query over large records with `workers`
// goroutines.
type ParallelEngine struct {
	aut     *automaton.Automaton
	subAut  []*automaton.Automaton // remaining path after the k-th step
	workers int
}

// NewParallelEngine builds the engine; the path must not contain
// descendant steps (route those to NFAEngine).
func NewParallelEngine(p *jsonpath.Path, workers int) (*ParallelEngine, error) {
	if p.HasDescendant() {
		return nil, fmt.Errorf("core: speculation does not apply to descendant paths")
	}
	for i, st := range p.Steps {
		// Filter steps are streamable (the serial engine probes them) but
		// union and backward/negative steps are not: those route through
		// the segmented evaluator, never here.
		if !st.Streamable() {
			return nil, fmt.Errorf("core: step %d (%s) is not streamable", i, st.Kind)
		}
	}
	pe := &ParallelEngine{aut: automaton.New(p), workers: workers}
	// Pre-compile the "remaining path" automaton for every possible
	// array-step split point.
	pe.subAut = make([]*automaton.Automaton, len(p.Steps)+1)
	for k := range p.Steps {
		rest := &jsonpath.Path{Steps: p.Steps[k+1:]}
		pe.subAut[k] = automaton.New(rest)
	}
	return pe, nil
}

// Run evaluates the query. emit may be called concurrently.
func (pe *ParallelEngine) Run(data []byte, emit EmitFunc) (Stats, error) {
	return pe.eval(data, nil, emit)
}

// RunIndexed evaluates the query over a prebuilt structural index. With
// the index, element discovery reads string-filtered masks directly —
// the speculation and misprediction re-scans of the lazy path disappear,
// leaving only a popcount pass to stitch per-chunk depths — and every
// worker's shard evaluation borrows the same masks through a windowed
// stream. The caller must hold a reference on ix for the duration of
// the call; emit may be called concurrently and receives absolute
// positions.
func (pe *ParallelEngine) RunIndexed(ix *stream.Index, emit EmitFunc) (Stats, error) {
	return pe.eval(ix.Data(), ix, emit)
}

// serial is the single-threaded fallback used when parallel evaluation
// does not apply (one worker, wildcard prefixes, no array step).
func (pe *ParallelEngine) serial(data []byte, ix *stream.Index, emit EmitFunc) (Stats, error) {
	e := NewEngine(pe.aut)
	if ix != nil {
		return e.RunIndexed(ix, emit)
	}
	return e.Run(data, emit)
}

func (pe *ParallelEngine) eval(data []byte, ix *stream.Index, emit EmitFunc) (Stats, error) {
	if pe.workers <= 1 {
		return pe.serial(data, ix, emit)
	}
	// Absolute ($) references inside filter predicates resolve against the
	// whole record; a sharded engine would resolve them against its element.
	for k := 0; k < pe.aut.StepCount(); k++ {
		if st := pe.aut.Step(k); st.Kind == jsonpath.Filter && st.Filter.HasAbsolute() {
			return pe.serial(data, ix, emit)
		}
	}
	// Phase 1 runs over the same cursor substrate as the engines: the
	// prefix resolution below is a hand-rolled descent only because it
	// stops at the split array rather than consuming it.
	var c cursor
	if ix != nil {
		c.prepareIndexed(ix)
	} else {
		c.prepare(data)
	}
	c.begin(nil)
	s := c.s
	b, ok := s.SkipWS()
	if !ok {
		return Stats{}, fmt.Errorf("core: empty input")
	}
	// Phase 1: resolve leading child steps serially.
	k := 0
	for k < pe.aut.StepCount() && pe.aut.IsObjectState(k) {
		st := pe.aut.Step(k)
		if st.Kind != jsonpath.Child || b != '{' {
			// wildcard prefixes or type mismatch: fall back to serial
			return pe.serial(data, ix, emit)
		}
		s.Advance(1) // '{'
		found := false
		for {
			r, err := c.ff.NextAttr(st.Expect)
			if err != nil {
				return Stats{}, err
			}
			if r.End {
				break
			}
			if _, status := pe.aut.MatchKey(k, r.Name); status != automaton.Unmatched {
				found = true
				break
			}
			if err := c.skipValue(r.VType, fastforward.G2, false); err != nil {
				return Stats{}, err
			}
		}
		if !found {
			return c.stats(int64(s.Len())), nil
		}
		k++
		b, ok = s.SkipWS()
		if !ok {
			return Stats{}, fmt.Errorf("core: missing value at %d", s.Pos())
		}
	}
	if k >= pe.aut.StepCount() || !pe.aut.IsArrayState(k) || b != '[' {
		// No array step to parallelize over: serial evaluation.
		return pe.serial(data, ix, emit)
	}
	aryOpen := s.Pos()
	var (
		elems []elemSpan
		err   error
	)
	if ix != nil {
		elems, err = discoverElementsIndexed(ix, aryOpen, pe.workers)
	} else {
		elems, err = discoverElementsBlocks(data, aryOpen, pe.workers)
	}
	if err != nil {
		return Stats{}, err
	}
	// Phase 4: evaluate elements in parallel with the remaining path.
	// The split step is an Index or Slice (wildcard and filter prefixes
	// fell back to serial above), so per-element selection — including
	// slice stride gaps — is IndexMatches.
	stepK := pe.aut.Step(k)
	sub := pe.subAut[k]
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		total Stats
		first error
	)
	total = c.stats(int64(s.Len())) // prefix work
	workers := pe.workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine(sub)
			var local Stats
			for {
				i := int(next.Add(1)) - 1
				if i >= len(elems) {
					break
				}
				if !automaton.IndexMatches(stepK, i) {
					continue
				}
				el := elems[i]
				var (
					st  Stats
					err error
				)
				if ix != nil {
					// Windowed indexed stream: positions are already
					// absolute, no offset shim needed.
					st, err = e.RunIndexedWindow(ix, el.start, el.end, emit)
				} else {
					var subEmit EmitFunc
					if emit != nil {
						subEmit = func(st, en int) { emit(el.start+st, el.start+en) }
					}
					st, err = e.Run(data[el.start:el.end], subEmit)
				}
				local.Matches += st.Matches
				local.InputBytes += st.InputBytes
				for g := range local.Skipped.SkippedBytes {
					local.Skipped.SkippedBytes[g] += st.Skipped.SkippedBytes[g]
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					break
				}
			}
			mu.Lock()
			total.Matches += local.Matches
			for g := range total.Skipped.SkippedBytes {
				total.Skipped.SkippedBytes[g] += local.Skipped.SkippedBytes[g]
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.InputBytes = int64(len(data))
	return total, first
}

// ---- speculative element discovery (phases 2+3+4a) over raw blocks ----

type elemSpan struct{ start, end int }

type specChunk struct {
	depthDelta [2]int // per string polarity (0: starts outside)
	endInStr   [2]bool
	trailRun   int
	trailAll   bool
}

// analyzeSpecChunk is phase 2 for one word-aligned chunk.
func analyzeSpecChunk(data []byte, lo, hi int, escIn bool) specChunk {
	var ci specChunk
	var blk bits.Block
	var ec bits.EscapeCarry
	if escIn {
		ec.Escaped(1 << 63) // seed the carry
	}
	var sc bits.StringCarry
	for base := lo; base < hi; base += bits.WordSize {
		end := base + bits.WordSize
		if end > hi {
			end = hi
		}
		blk.Load(data[base:end])
		quotes, backslash := blk.QuoteAndBackslashMasks()
		quotes &^= ec.Escaped(backslash)
		inStr := sc.InStringMask(quotes)
		valid := ^uint64(0)
		if n := end - base; n < bits.WordSize {
			valid = uint64(1)<<uint(n) - 1
		}
		opens := (blk.EqMask('{') | blk.EqMask('[')) & valid
		closes := (blk.EqMask('}') | blk.EqMask(']')) & valid
		ci.depthDelta[0] += bits.OnesCount(opens&^inStr) - bits.OnesCount(closes&^inStr)
		ci.depthDelta[1] += bits.OnesCount(opens&inStr) - bits.OnesCount(closes&inStr)
	}
	ci.endInStr[0] = sc.InStringMask(0)&1 != 0
	ci.endInStr[1] = !ci.endInStr[0]
	i := hi - 1
	for i >= lo && data[i] == '\\' {
		i--
	}
	ci.trailRun = hi - 1 - i
	ci.trailAll = i < lo
	return ci
}

// sepScanBlocks is phase 4a: with known start state, collect the commas at
// relative depth==1 (the target array's separators) and the position of
// its closing bracket, using word masks.
func sepScanBlocks(data []byte, lo, hi int, escIn, inStrIn bool, depth int) (commas []int, closeAt int) {
	var blk bits.Block
	var ec bits.EscapeCarry
	if escIn {
		ec.Escaped(1 << 63)
	}
	var sc bits.StringCarry
	if inStrIn {
		sc.InStringMask(1)
	}
	closeAt = -1
	for base := lo; base < hi; base += bits.WordSize {
		end := base + bits.WordSize
		if end > hi {
			end = hi
		}
		blk.Load(data[base:end])
		quotes, backslash := blk.QuoteAndBackslashMasks()
		quotes &^= ec.Escaped(backslash)
		inStr := sc.InStringMask(quotes)
		valid := ^uint64(0)
		if n := end - base; n < bits.WordSize {
			valid = uint64(1)<<uint(n) - 1
		}
		opens := (blk.EqMask('{') | blk.EqMask('[')) & valid &^ inStr
		closes := (blk.EqMask('}') | blk.EqMask(']')) & valid &^ inStr
		cms := blk.EqMask(',') & valid &^ inStr
		if opens|closes == 0 {
			// Fast path: whole word on one level.
			if depth == 1 {
				for m := cms; m != 0; m &= m - 1 {
					commas = append(commas, base+bits.TrailingZeros(m))
				}
			}
			continue
		}
		all := opens | closes | cms
		for all != 0 {
			p := bits.TrailingZeros(all)
			bit := uint64(1) << uint(p)
			all &= all - 1
			switch {
			case opens&bit != 0:
				depth++
			case closes&bit != 0:
				depth--
				if depth == 0 {
					return commas, base + p
				}
			default:
				if depth == 1 {
					commas = append(commas, base+p)
				}
			}
		}
	}
	return commas, -1
}

// discoverElementsBlocks finds the element spans of the array opening at
// aryOpen via speculative chunked block scans.
func discoverElementsBlocks(data []byte, aryOpen, workers int) ([]elemSpan, error) {
	lo := aryOpen + 1
	hi := len(data)
	// Word-aligned chunk bounds after the opening bracket.
	firstWord := (lo + bits.WordSize - 1) / bits.WordSize * bits.WordSize
	if firstWord > hi {
		firstWord = hi
	}
	words := (hi - firstWord) / bits.WordSize
	nChunks := workers * 4
	if nChunks > words {
		nChunks = words
	}
	if nChunks < 2 {
		// Tiny tail: scan serially.
		commas, closeAt := sepScanBlocks(data, lo, hi, false, false, 1)
		return assembleElems(data, lo, commas, closeAt)
	}
	bounds := make([]int, nChunks+2)
	bounds[0] = lo
	for i := 1; i <= nChunks; i++ {
		bounds[i] = firstWord + (words*i/nChunks)*bits.WordSize
	}
	bounds[nChunks+1] = hi
	if bounds[nChunks] > hi {
		bounds[nChunks] = hi
	}

	n := len(bounds) - 1
	infos := make([]specChunk, n)
	parallelChunks(n, workers, func(i int) {
		infos[i] = analyzeSpecChunk(data, bounds[i], bounds[i+1], false)
	})

	// Phase 3: stitch.
	escIn := make([]bool, n)
	inStrIn := make([]bool, n)
	depthIn := make([]int, n)
	esc, inStr, depth := false, false, 1
	for i := 0; i < n; i++ {
		escIn[i], inStrIn[i], depthIn[i] = esc, inStr, depth
		if bounds[i] >= bounds[i+1] {
			continue // empty chunk: state passes through unchanged
		}
		if esc {
			infos[i] = analyzeSpecChunk(data, bounds[i], bounds[i+1], true)
		}
		p := 0
		if inStr {
			p = 1
		}
		depth += infos[i].depthDelta[p]
		inStr = infos[i].endInStr[p]
		run := infos[i].trailRun
		if infos[i].trailAll && esc {
			run--
		}
		esc = run%2 == 1
	}

	// Phase 4a: collect separators per chunk.
	type part struct {
		commas  []int
		closeAt int
	}
	parts := make([]part, n)
	parallelChunks(n, workers, func(i int) {
		c, cl := sepScanBlocks(data, bounds[i], bounds[i+1], escIn[i], inStrIn[i], depthIn[i])
		parts[i] = part{c, cl}
	})
	var commas []int
	closeAt := -1
	for i := 0; i < n && closeAt < 0; i++ {
		commas = append(commas, parts[i].commas...)
		closeAt = parts[i].closeAt
	}
	return assembleElems(data, lo, commas, closeAt)
}

// ---- index-driven element discovery (no speculation needed) ----

// indexedChunkDelta returns the net '{['-minus-'}]' depth change over
// [lo, hi) read from prebuilt index rows.
func indexedChunkDelta(ix *stream.Index, lo, hi int) int {
	d := 0
	for base := lo &^ (bits.WordSize - 1); base < hi; base += bits.WordSize {
		opens, closes, _ := ix.DepthMasks(base / bits.WordSize)
		valid := ^uint64(0)
		if base < lo {
			valid &^= uint64(1)<<uint(lo-base) - 1
		}
		if hi-base < bits.WordSize {
			valid &= uint64(1)<<uint(hi-base) - 1
		}
		d += bits.OnesCount(opens&valid) - bits.OnesCount(closes&valid)
	}
	return d
}

// sepScanIndexed is sepScanBlocks over prebuilt index rows: the masks are
// already string-filtered, so no escape/string carries are threaded in.
func sepScanIndexed(ix *stream.Index, lo, hi, depth int) (commas []int, closeAt int) {
	closeAt = -1
	for base := lo &^ (bits.WordSize - 1); base < hi; base += bits.WordSize {
		opens, closes, cms := ix.DepthMasks(base / bits.WordSize)
		valid := ^uint64(0)
		if base < lo {
			valid &^= uint64(1)<<uint(lo-base) - 1
		}
		if hi-base < bits.WordSize {
			valid &= uint64(1)<<uint(hi-base) - 1
		}
		opens &= valid
		closes &= valid
		cms &= valid
		if opens|closes == 0 {
			if depth == 1 {
				for m := cms; m != 0; m &= m - 1 {
					commas = append(commas, base+bits.TrailingZeros(m))
				}
			}
			continue
		}
		all := opens | closes | cms
		for all != 0 {
			p := bits.TrailingZeros(all)
			bit := uint64(1) << uint(p)
			all &= all - 1
			switch {
			case opens&bit != 0:
				depth++
			case closes&bit != 0:
				depth--
				if depth == 0 {
					return commas, base + p
				}
			default:
				if depth == 1 {
					commas = append(commas, base+p)
				}
			}
		}
	}
	return commas, -1
}

// discoverElementsIndexed finds the element spans of the array opening
// at aryOpen by reading prebuilt index rows. String state is resolved
// for every word at index-build time, so — unlike the speculative raw-block
// path — chunks need no polarity speculation, no escape-carry stitch,
// and no misprediction re-scan: phase A is a pure popcount depth-delta
// per chunk, a serial O(#chunks) prefix sum stitches absolute depths,
// and phase B collects separators with exact state.
func discoverElementsIndexed(ix *stream.Index, aryOpen, workers int) ([]elemSpan, error) {
	data := ix.Data()
	lo := aryOpen + 1
	hi := ix.Len()
	firstWord := (lo + bits.WordSize - 1) / bits.WordSize * bits.WordSize
	if firstWord > hi {
		firstWord = hi
	}
	words := (hi - firstWord) / bits.WordSize
	nChunks := workers * 4
	if nChunks > words {
		nChunks = words
	}
	if nChunks < 2 {
		commas, closeAt := sepScanIndexed(ix, lo, hi, 1)
		return assembleElems(data, lo, commas, closeAt)
	}
	bounds := make([]int, nChunks+2)
	bounds[0] = lo
	for i := 1; i <= nChunks; i++ {
		bounds[i] = firstWord + (words*i/nChunks)*bits.WordSize
	}
	bounds[nChunks+1] = hi

	n := len(bounds) - 1
	deltas := make([]int, n)
	parallelChunks(n, workers, func(i int) {
		deltas[i] = indexedChunkDelta(ix, bounds[i], bounds[i+1])
	})
	depthIn := make([]int, n)
	depth := 1
	for i := 0; i < n; i++ {
		depthIn[i] = depth
		depth += deltas[i]
	}

	type part struct {
		commas  []int
		closeAt int
	}
	parts := make([]part, n)
	parallelChunks(n, workers, func(i int) {
		c, cl := sepScanIndexed(ix, bounds[i], bounds[i+1], depthIn[i])
		parts[i] = part{c, cl}
	})
	var commas []int
	closeAt := -1
	for i := 0; i < n && closeAt < 0; i++ {
		commas = append(commas, parts[i].commas...)
		closeAt = parts[i].closeAt
	}
	return assembleElems(data, lo, commas, closeAt)
}

func assembleElems(data []byte, lo int, commas []int, closeAt int) ([]elemSpan, error) {
	if closeAt < 0 {
		return nil, fmt.Errorf("core: array is not closed")
	}
	var elems []elemSpan
	prev := lo
	for _, c := range commas {
		if c > closeAt {
			break
		}
		elems = append(elems, elemSpan{prev, c})
		prev = c + 1
	}
	// final element, if non-empty
	i := prev
	for i < closeAt && isSpaceByte(data[i]) {
		i++
	}
	if i < closeAt {
		elems = append(elems, elemSpan{prev, closeAt})
	}
	return elems, nil
}

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func parallelChunks(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
