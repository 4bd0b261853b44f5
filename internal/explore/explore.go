// Package explore is the parallel explicit-state construction engine: a
// level-synchronised breadth-first exploration over packed uint64 state
// codes that shards each frontier across a worker pool and still numbers
// states exactly as the sequential FIFO exploration would, so a parallel
// build is byte-identical to a sequential one.
//
// A Def describes one state space intensionally: an initial code, a
// successor generator and a labelling, all over packed codes (see
// internal/ring and internal/process for the packers).  Two artefacts can
// be built from a Def:
//
//   - Explore returns the raw Space — the reachable codes in canonical BFS
//     order plus the transition relation in compressed-sparse-row form,
//     with no labels and no per-state allocations, which is the
//     representation that scales to tens of millions of states;
//   - Build additionally materialises the labelled kripke.Structure through
//     the Builder (AddState into a reused scratch slice, then
//     AdoptSuccessors, which hands the Space's successor rows to the
//     structure without copying them), for the sizes the correspondence
//     and model-checking engines actually consume.
//
// Determinism.  The sequential explorations this package replaces (a FIFO
// queue over codes) assign state identifiers in level order, and within a
// level in first-occurrence order of the concatenated successor stream of
// the previous level's states taken in identifier order.  The parallel
// engine reproduces that numbering exactly: each level is split into
// contiguous chunks, workers record for every newly seen code the minimal
// (frontier index, successor index) stream position that produced it, and a
// per-level renumber pass sorts the new codes by that position before
// assigning identifiers.  The result does not depend on the worker count or
// on scheduling.
//
// Dedup is a striped open-addressing table of packed codes: the permanent
// table is read lock-free during a level (it only grows between levels),
// and per-stripe mutexes guard only the small per-level pending sets, so
// the hot path costs one hash and a few probes instead of a Go map
// operation.  A slot is 8 bytes, a hash tag and an id confirmed against
// the Space's codes, which the table owns.  A stripe is sized exactly, not
// to a power of two: room at the 62.5% load for its expected share of the
// declared states plus four standard deviations, so a declared size grows
// almost no stripe; the tag picks a home slot by multiply-shift, so a
// stripe that does grow rehashes from the tags alone.
//
// Chunks.  A level is split into chunks of at most 1,024 frontier states
// (fewer on a narrow level, so every worker has several).  Each chunk
// keeps one id stream, in which a code new to the table names its pending
// entry, presized from the expected successors per state with 1/8 of slack
// and doubled when a level outruns it.  A level wider than the last adds
// chunks instead of regrowing every chunk's stream, so construction
// allocates about what it keeps: the Space's arrays, the table and one
// stream per chunk of the widest level.
package explore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/kripke"
)

// Def describes a state space over packed uint64 codes.
type Def struct {
	// Name names the built structure (e.g. "ring[12]").
	Name string
	// Init is the packed initial state.
	Init uint64
	// NumIndices, when positive, declares the index set 1..NumIndices on
	// the built structure (kripke.Builder.DeclareIndex).
	NumIndices int
	// Succ appends the successor codes of code to dst and returns it.
	// The engine calls Succ concurrently from multiple goroutines, so it
	// must be safe for concurrent use (pure functions over the code are).
	Succ func(dst []uint64, code uint64) ([]uint64, error)
	// Label appends the state's propositions to dst, in any order (the
	// builder stores a label as a set of bits over the propositions).
	// Label is only called by Build, sequentially.
	Label func(dst []kripke.Prop, code uint64) []kripke.Prop
	// States and Transitions, when positive, declare the expected number
	// of reachable states and of distinct transitions.  They are capacity
	// hints only: Explore allocates the Space's arrays at the declared
	// size and writes them in place.  Transitions is clamped to
	// math.MaxInt32, and a States past Options.MaxStates, which predicts
	// ErrLimit, drops both hints.  A wrong hint costs memory, never a
	// different result; the slack of an over-declared size stays with the
	// Space.
	States, Transitions int
}

// Options controls an exploration.
type Options struct {
	// Workers is the worker-pool size; zero or negative means one per
	// available CPU.  The result is identical for every worker count.
	Workers int
	// MaxStates caps the number of reachable states generated; zero means
	// DefaultMaxStates.  Exceeding the cap returns ErrLimit: the caller
	// asked for a space that should be reasoned about with the
	// correspondence theorem, not enumerated.
	MaxStates int
}

// DefaultMaxStates bounds explorations that set no explicit cap (2^25
// states ≈ the r = 21 ring).
const DefaultMaxStates = 1 << 25

// ErrLimit marks explorations aborted at their state cap.
var ErrLimit = errors.New("state space beyond the exploration limit")

// ErrTooManyTransitions marks explorations whose transition relation does
// not fit the int32 row offsets of the successor CSR.
var ErrTooManyTransitions = errors.New("transition relation beyond the int32 row offsets")

// maxSuccPerState bounds the successor count of a single state, so a
// stream position packs into (frontier index << 16) | successor index.
const maxSuccPerState = 1 << 16

// Space is the raw result of an exploration: the reachable codes in
// canonical BFS order and the deduplicated transition relation in
// compressed-sparse-row form.  State 0 is the initial state.  The
// successor rows are the layout kripke.Structure uses, so a structure built
// from the space shares them.
type Space struct {
	name  string
	succ  []kripke.State
	off   []int32
	table *codeTable // owns the codes
}

// Name returns the definition's name.
func (sp *Space) Name() string { return sp.name }

// NumStates returns the number of reachable states.
func (sp *Space) NumStates() int { return len(sp.table.codes) }

// NumTransitions returns the number of distinct transitions.
func (sp *Space) NumTransitions() int { return len(sp.succ) }

// Code returns the packed code of state s.
func (sp *Space) Code(s int32) uint64 { return sp.table.codes[s] }

// Codes returns every reachable code in state order.  The slice is shared
// backing and must not be modified.
func (sp *Space) Codes() []uint64 { return sp.table.codes }

// Succ returns the successor states of s, sorted ascending.  The slice is
// a view into shared backing and must not be modified.
func (sp *Space) Succ(s int32) []kripke.State { return sp.succ[sp.off[s]:sp.off[s+1]] }

// Lookup returns the state with the given code.
func (sp *Space) Lookup(code uint64) (int32, bool) { return sp.table.get(code) }

// Explore runs the parallel breadth-first exploration of def and returns
// its raw Space.  Cancelling ctx stops the worker pool promptly; no worker
// goroutine survives the call.
func Explore(ctx context.Context, def Def, opts Options) (*Space, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	if maxStates > 1<<31-1 {
		return nil, fmt.Errorf("explore: %s: MaxStates %d exceeds the int32 state id space", def.Name, maxStates)
	}
	if def.Succ == nil {
		return nil, fmt.Errorf("explore: %s: Def.Succ is nil", def.Name)
	}

	// The Space's arrays and the code table are allocated at the Def's
	// declared size; the frontier is a view into the table's codes, and
	// each level appends its new codes, rows and offsets in place.  Codes
	// past the declared capacity grow through slices.Grow, as the table
	// reads them.  Rows and offsets past theirs switch to per-level
	// segments, assembled once at the end: growing the transition rows
	// through append would copy the whole prefix over and over, the cost
	// that made labelled builds degrade with size (DESIGN.md §7,
	// "Allocation discipline").
	hintStates, hintEdges := max(def.States, 1), min(max(def.Transitions, 0), math.MaxInt32)
	if hintStates > maxStates {
		// A size past the cap predicts ErrLimit: pay nothing up front for it.
		hintStates, hintEdges = 1, 0
	}
	table := newCodeTable(workers <= 1, hintStates)
	table.insert(def.Init)
	sp := &Space{name: def.Name, table: table, off: append(make([]int32, 0, hintStates+1), 0),
		succ: make([]kripke.State, 0, hintEdges)}
	frontier := table.codes
	var rowSegs [][]kripke.State // per chunk past sp.succ's capacity: deduplicated rows
	var cntSegs [][]int32        // parallel to rowSegs: the row lengths

	// Per-level chunk buffers, reused across levels while the rows fit the
	// Space's arrays, and the handles of the pending entries.  A chunk's
	// ids are presized at rateEdges raw successors per rateStates states:
	// the declared Transitions per declared state for the first level, and
	// for every later one the previous level's successors per state before
	// deduplication, which follows a level-to-level drift that one global
	// ratio misses.
	var chunks []levelChunk
	var pend []int32
	rateEdges, rateStates := hintEdges, hintStates

	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		numStates := len(table.codes)
		levelSize := len(frontier)
		levelBase := numStates - levelSize
		chunkSize := min(maxChunkStates, (levelSize+4*workers-1)/(4*workers))
		numChunks := (levelSize + chunkSize - 1) / chunkSize
		for len(chunks) < numChunks {
			chunks = append(chunks, levelChunk{})
		}

		// Phase A: generate successors chunk by chunk into the chunk's
		// scratch, record the id of every code already in the table and,
		// for a code not yet in it, -1-h for the handle h of its pending
		// entry, claiming its minimal stream position.  A chunk may hold many
		// expensive states, so cancellation is polled between states, by a
		// non-blocking receive on the level's Done channel.
		done := ctx.Done()
		err := parallelDo(ctx, workers, numChunks, func(ci int) error {
			c := &chunks[ci]
			lo := ci * chunkSize
			hi := min(lo+chunkSize, levelSize)
			c.reserve(hi-lo, rateEdges, rateStates)
			var err error
			for k := lo; k < hi; k++ {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
				c.scratch, err = def.Succ(c.scratch[:0], frontier[k])
				if err != nil {
					return fmt.Errorf("explore: %s: successors of state %d: %w", def.Name, levelBase+k, err)
				}
				if len(c.scratch) >= maxSuccPerState {
					return fmt.Errorf("explore: %s: state %d has %d successors (limit %d)",
						def.Name, levelBase+k, len(c.scratch), maxSuccPerState)
				}
				c.counts = append(c.counts, int32(len(c.scratch)))
				if len(c.scratch) > cap(c.ids)-len(c.ids) {
					ids := make([]kripke.State, len(c.ids), 2*cap(c.ids)+len(c.scratch))
					c.ids = ids[:copy(ids, c.ids)]
				}
				for j, code := range c.scratch {
					if id, ok := table.get(code); ok {
						c.ids = append(c.ids, kripke.State(id))
						continue
					}
					h, ok := table.claim(code, uint64(k)<<16|uint64(j))
					if !ok {
						return fmt.Errorf("explore: %s: more than %d new states in one table stripe at one level: %w",
							def.Name, maxPendingEntries, ErrLimit)
					}
					c.ids = append(c.ids, kripke.State(-1-h))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rateEdges, rateStates = 0, levelSize
		for ci := 0; ci < numChunks; ci++ {
			rateEdges += len(chunks[ci].ids)
		}

		// Phase B: the canonical renumber pass.  Sort the pending handles by
		// minimal stream position and write each entry its new id, exactly
		// in the first-occurrence order of the sequential stream.
		pend = table.drainPending(pend)
		slices.SortFunc(pend, func(a, b int32) int { return cmp.Compare(table.entry(a).val, table.entry(b).val) })
		if numStates+len(pend) > maxStates {
			return nil, fmt.Errorf("explore: %s: more than %d reachable states: %w", def.Name, maxStates, ErrLimit)
		}
		table.codes = slices.Grow(table.codes, len(pend))
		for _, h := range pend {
			e := table.entry(h)
			e.val = uint64(len(table.codes))
			table.insert(e.code)
		}

		// Phase C: resolve each handle (a code that was new in phase A) to
		// the id in its entry, then sort and deduplicate each state's row
		// (the CSR convention of the builder), compacting the rows in place
		// inside ids and overwriting counts with their deduplicated lengths.
		firstNew, endNew := uint64(numStates), uint64(numStates+len(pend))
		err = parallelDo(ctx, workers, numChunks, func(ci int) error {
			c := &chunks[ci]
			base, end := 0, 0
			for r, n := range c.counts {
				row := c.ids[base : base+int(n)]
				base += int(n)
				for i, id := range row {
					if id < 0 {
						e := table.entry(int32(-1 - id))
						if e.val < firstNew || e.val >= endNew {
							return fmt.Errorf("explore: %s: successor code %#x resolved to id %d, outside the level's new ids [%d, %d)",
								def.Name, e.code, e.val, firstNew, endNew)
						}
						row[i] = kripke.State(e.val)
					}
				}
				slices.Sort(row)
				row = slices.Compact(row)
				end += copy(c.ids[end:], row)
				c.counts[r] = int32(len(row))
			}
			c.ids = c.ids[:end]
			return nil
		})
		if err != nil {
			return nil, err
		}
		table.resetPending()

		// Phase D: the chunk rows are already the final deduplicated
		// successor rows, in frontier order.  While they fit, append them
		// and their offsets to the Space's arrays and keep the chunk
		// buffers.  Past the declared capacity, steal the chunk buffers as
		// the level's segments, and the next level presizes fresh ones:
		// stealing instead of copying halves the engine's traffic over the
		// transition arrays.
		levelEdges := 0
		for ci := 0; ci < numChunks; ci++ {
			levelEdges += len(chunks[ci].ids)
		}
		if rowSegs == nil && len(sp.succ)+levelEdges <= cap(sp.succ) && len(sp.off)+levelSize <= cap(sp.off) {
			for ci := 0; ci < numChunks; ci++ {
				c := &chunks[ci]
				sp.succ = append(sp.succ, c.ids...)
				end := sp.off[len(sp.off)-1]
				for _, n := range c.counts {
					end += n
					sp.off = append(sp.off, end)
				}
			}
		} else {
			for ci := 0; ci < numChunks; ci++ {
				c := &chunks[ci]
				rowSegs = append(rowSegs, c.ids)
				cntSegs = append(cntSegs, c.counts)
				c.ids, c.counts = nil, nil
			}
		}
		frontier = table.codes[numStates:]
	}

	// Final assembly of the rows and offsets that overflowed their declared
	// capacity: one exact-size allocation each, the in-place prefix first.
	// Row offsets are int32, the structure's layout, so a larger relation
	// is refused.
	if rowSegs != nil {
		totalEdges := len(sp.succ)
		for _, seg := range rowSegs {
			totalEdges += len(seg)
		}
		if totalEdges > math.MaxInt32 {
			return nil, fmt.Errorf("explore: %s: %d transitions: %w", def.Name, totalEdges, ErrTooManyTransitions)
		}
		succ := append(make([]kripke.State, 0, totalEdges), sp.succ...)
		off := append(make([]int32, 0, len(table.codes)+1), sp.off...)
		for li, seg := range rowSegs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			succ = append(succ, seg...)
			for _, n := range cntSegs[li] {
				off = append(off, off[len(off)-1]+n)
			}
		}
		sp.succ, sp.off = succ, off
	}
	table.releasePending()
	return sp, nil
}

// Build explores def and materialises the labelled Kripke structure.  The
// result is byte-identical (after kripke.EncodeText) to the structure a
// sequential FIFO exploration of the same Def produces, for every worker
// count.  The returned structure is partial: callers validate totality or
// add self loops, as their sequential paths do.
func Build(ctx context.Context, def Def, opts Options) (*kripke.Structure, *Space, error) {
	sp, err := Explore(ctx, def, opts)
	if err != nil {
		return nil, nil, err
	}
	m, err := BuildFromSpace(ctx, def, sp)
	if err != nil {
		return nil, nil, err
	}
	return m, sp, nil
}

// BuildFromSpace labels an already-explored Space through the builder and
// returns the (partial) structure.  The structure adopts the space's
// successor rows: its Succ(s) is a view into the same backing array.
func BuildFromSpace(ctx context.Context, def Def, sp *Space) (*kripke.Structure, error) {
	if def.Label == nil {
		return nil, fmt.Errorf("explore: %s: Def.Label is nil", def.Name)
	}
	n := sp.NumStates()
	b := kripke.NewBuilder(def.Name)
	b.Grow(n)
	//lint:ctxloop bounded by Def.NumIndices, a handful of process indices
	for i := 1; i <= def.NumIndices; i++ {
		b.DeclareIndex(i)
	}
	var scratch []kripke.Prop
	codes := sp.Codes()
	for s := 0; s < n; s++ {
		if s&0xffff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		scratch = def.Label(scratch[:0], codes[s])
		b.AddState(scratch...)
	}
	if err := b.SetInitial(0); err != nil {
		return nil, err
	}
	if err := b.AdoptSuccessors(sp.off, sp.succ); err != nil {
		return nil, fmt.Errorf("explore: building %s: %w", def.Name, err)
	}
	m, err := b.BuildPartial()
	if err != nil {
		return nil, fmt.Errorf("explore: building %s: %w", def.Name, err)
	}
	return m, nil
}

// maxChunkStates caps the frontier states of one chunk.  Chunks of a wide
// level all have this size, so the chunk buffers of a level wider than the
// last are new chunks, presized once, rather than every chunk's buffers
// regrown by append, which costs about five times a buffer's final size.
const maxChunkStates = 1024

// expectedSuccessors returns the id capacity presized for a chunk of
// states frontier states: rateEdges raw successors per rateStates states,
// with 1/8 of slack.
func expectedSuccessors(states, rateEdges, rateStates int) int {
	return int((int64(states)*int64(rateEdges)*9 + 8*int64(rateStates) - 1) / (8 * int64(rateStates)))
}

// levelChunk is one contiguous slice of a level's frontier with its
// per-phase scratch buffers, reused across levels.
type levelChunk struct {
	scratch []uint64 // one state's successor codes
	// ids holds each state's successors in phase A: an id, or -1-h for a
	// code new to the table, h its pending entry's handle.  Phase C
	// resolves, sorts and deduplicates each row in place and overwrites
	// counts, the raw successor count per state, with the new lengths.
	ids    []kripke.State
	counts []int32
}

// reserve empties the chunk's buffers for a level in which it holds states
// frontier states, and presizes them at rateEdges raw successors per
// rateStates states.  Phase A doubles ids further when a level's
// successors outrun the estimate.
func (c *levelChunk) reserve(states, rateEdges, rateStates int) {
	c.counts = regrow(c.counts, states, maxChunkStates)
	c.ids = regrow(c.ids, expectedSuccessors(states, rateEdges, rateStates),
		expectedSuccessors(maxChunkStates, rateEdges, rateStates))
}

// regrow returns s emptied if it has room for need elements, and otherwise
// a new empty buffer of twice s's capacity, or need if more, but no more
// than full, what a chunk of maxChunkStates states needs.  A chunk whose
// share of a level widens level after level thus reallocates O(log
// maxChunkStates) times while the rate holds, and doubling never takes it
// past a full chunk.
func regrow[S ~[]E, E any](s S, need, full int) S {
	if cap(s) >= need {
		return s[:0]
	}
	return make(S, 0, max(need, min(2*cap(s), full)))
}

// parallelDo runs fn(0..n-1) on up to workers goroutines, claiming chunk
// indices atomically.  It returns the error of the lowest-indexed failing
// chunk and always joins every goroutine before returning; a cancelled ctx
// stops workers at their next claim.
func parallelDo(ctx context.Context, workers, n int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
