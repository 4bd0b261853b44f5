package process

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/explore"
	"repro/internal/kripke"
)

// stateCodec lays a global state out as a bit string of words 64-bit
// words: process i's local-state index in localBits bits at offset
// (i-1)·localBits, then each shared variable at its sharedOff, a bounded
// one in bitsFor(Max) bits and an unbounded one as a full 64-bit
// two's-complement field (so negative values round-trip).  A field may
// straddle two words.
type stateCodec struct {
	localBits uint
	words     int
	sharedOff []uint
	sharedMax []int // per shared variable: its bound, or 0 when unbounded
}

func (n *Network) newStateCodec() stateCodec {
	c := stateCodec{localBits: bitsFor(len(n.Template.States) - 1)}
	off := uint(n.N) * c.localBits
	for i, sv := range n.Shared {
		c.sharedOff = append(c.sharedOff, off)
		c.sharedMax = append(c.sharedMax, max(sv.Max, 0))
		off += c.sharedBits(i)
	}
	c.words = int((off + 63) / 64)
	return c
}

func (c stateCodec) sharedBits(i int) uint {
	if c.sharedMax[i] == 0 {
		return 64
	}
	return bitsFor(c.sharedMax[i])
}

// bitsFor returns the number of bits needed to store values in [0, max].
func bitsFor(max int) uint {
	bits := uint(1)
	for max >= 1<<bits {
		bits++
	}
	return bits
}

// encode writes v into code (c.words words), reporting an error when a
// bounded shared variable has left its declared range.
func (c stateCodec) encode(v View, code []uint64) error {
	clear(code)
	for i, ls := range v.locals {
		putBits(code, uint(i)*c.localBits, uint64(ls))
	}
	for i, val := range v.shared {
		if m := c.sharedMax[i]; m > 0 && (val < 0 || val > m) {
			return fmt.Errorf("process: shared variable %q = %d outside its declared range [0, %d]",
				v.net.Shared[i].Name, val, m)
		}
		putBits(code, c.sharedOff[i], uint64(val))
	}
	return nil
}

// decode unpacks a code produced by encode into a fresh View.
func (c stateCodec) decode(n *Network, code []uint64) View {
	locals := make([]int, n.N)
	for i := range locals {
		locals[i] = int(getBits(code, uint(i)*c.localBits, c.localBits))
	}
	shared := make([]int, len(c.sharedOff))
	for i := range shared {
		shared[i] = int(int64(getBits(code, c.sharedOff[i], c.sharedBits(i))))
	}
	return View{net: n, locals: locals, shared: shared}
}

// putBits ORs the field x into code at bit offset off; the bits of x past
// the word boundary spill into the next word.
func putBits(code []uint64, off uint, x uint64) {
	w, s := off/64, off%64
	code[w] |= x << s
	if s != 0 && x>>(64-s) != 0 {
		code[w+1] |= x >> (64 - s)
	}
}

// getBits reads the width-bit field at bit offset off of code.
func getBits(code []uint64, off, width uint) uint64 {
	w, s := off/64, off%64
	x := code[w] >> s
	if s != 0 && s+width > 64 {
		x |= code[w+1] << (64 - s)
	}
	if width < 64 {
		x &= 1<<width - 1
	}
	return x
}

// internTable numbers the multi-word codes of one Def: code → id for the
// successor generator, id → code for decoding.  A code is keyed by its
// fixed-width byte string (8 little-endian bytes per word).  The explorer
// calls Succ from several workers, so a mutex guards both directions.
type internTable struct {
	mu    sync.Mutex
	words int
	ids   map[string]uint64
	codes []uint64 // id k's code is codes[k·words : (k+1)·words]
}

// id returns the id of code, whose byte string is key, numbering it on
// first sight.
func (t *internTable) id(key []byte, code []uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[string(key)]; ok {
		return id
	}
	id := uint64(len(t.codes) / t.words)
	t.ids[string(key)] = id
	t.codes = append(t.codes, code...)
	return id
}

// code returns id's code, a view that stays valid: id appends only write
// past every code already numbered, into this backing or a new one.
func (t *internTable) code(id uint64) []uint64 {
	lo, hi := id*uint64(t.words), (id+1)*uint64(t.words)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.codes[lo:hi:hi]
}

// appendKey appends the byte string of code to dst.
func appendKey(dst []byte, code []uint64) []byte {
	for _, w := range code {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Def describes the network's reachable global state space to the
// explorer.  It serves every valid network; an invalid one, or an initial
// state outside a bounded shared variable's range, is an error.  Codes are
// the stateCodec's bit strings.  When they fit one word (packed), the code
// handed to the explorer is that word: process i's local-state index in
// field i-1, the layout symmetry groups act on.  Otherwise it is the id the
// Def's own intern table gives the multi-word code.  The explorer numbers
// states by BFS stream position, not by code, so both routes build the
// structure a sequential FIFO exploration of the network builds, in the
// same rule-major successor order.
//
// Succ is called concurrently when the explorer runs more than one worker,
// so the rules' guards and updates must then be pure functions of the view;
// a network whose rules close over mutable state must be explored by one
// worker.
func (n *Network) Def(name string) (def explore.Def, packed bool, err error) {
	if err := n.Validate(); err != nil {
		return explore.Def{}, false, err
	}
	initial, err := n.initialView()
	if err != nil {
		return explore.Def{}, false, err
	}
	c := n.newStateCodec()
	init := make([]uint64, c.words)
	if err := c.encode(initial, init); err != nil {
		return explore.Def{}, false, err
	}
	if name == "" {
		name = fmt.Sprintf("%s[%d]", n.Template.Name, n.N)
	}
	def = explore.Def{Name: name, NumIndices: n.N}
	if c.words == 1 {
		def.Init = init[0]
		def.Succ = func(dst []uint64, code uint64) ([]uint64, error) {
			return n.appendSucc(dst, c, []uint64{code}, func(w []uint64) uint64 { return w[0] })
		}
		def.Label = func(dst []kripke.Prop, code uint64) []kripke.Prop {
			return n.appendLabel(dst, c, []uint64{code})
		}
		return def, true, nil
	}
	t := &internTable{words: c.words, ids: map[string]uint64{}}
	def.Init = t.id(appendKey(nil, init), init)
	def.Succ = func(dst []uint64, id uint64) ([]uint64, error) {
		key := make([]byte, 0, 8*c.words)
		return n.appendSucc(dst, c, t.code(id), func(w []uint64) uint64 {
			key = appendKey(key[:0], w)
			return t.id(key, w)
		})
	}
	def.Label = func(dst []kripke.Prop, id uint64) []kripke.Prop {
		return n.appendLabel(dst, c, t.code(id))
	}
	return def, false, nil
}

// appendSucc appends to dst the codes of the successors of the state whose
// code is given, each encoded and passed through id (the word itself, or
// its interned id).
func (n *Network) appendSucc(dst []uint64, c stateCodec, code []uint64, id func([]uint64) uint64) ([]uint64, error) {
	succs, err := n.successors(c.decode(n, code))
	if err != nil {
		return dst, err
	}
	w := make([]uint64, c.words)
	for _, sv := range succs {
		if err := c.encode(sv, w); err != nil {
			return dst, err
		}
		dst = append(dst, id(w))
	}
	return dst, nil
}

// appendLabel appends the global label of the state with the given code to
// dst (reusable scratch): the indexed propositions of every process's local
// state, read straight from the code, plus any plain propositions from
// GlobalProps, which alone needs a decoded view.
func (n *Network) appendLabel(dst []kripke.Prop, c stateCodec, code []uint64) []kripke.Prop {
	for i := 1; i <= n.N; i++ {
		ls := getBits(code, uint(i-1)*c.localBits, c.localBits)
		for _, prop := range n.Template.Labels[n.Template.States[ls]] {
			dst = append(dst, kripke.PI(prop, i))
		}
	}
	if n.GlobalProps != nil {
		plain := n.GlobalProps(c.decode(n, code))
		sort.Strings(plain)
		for _, p := range plain {
			dst = append(dst, kripke.P(p))
		}
	}
	return dst
}
