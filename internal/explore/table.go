package explore

import (
	"math/bits"
	"sync"
)

// codeTable maps packed uint64 codes to int32 state ids, and owns the codes
// themselves: codes[id] is state id's code, appended by insert.  It is an
// open-addressing hash table striped 64 ways: each stripe owns a permanent
// slot array plus a per-level pending set (also open addressing) guarded by
// the stripe mutex.  During a level's parallel phases the permanent arrays
// and codes are read-only (they grow only in the sequential renumber pass
// between levels), so get() runs lock-free; only claims on genuinely new
// codes take a stripe lock.  A table created for a single-worker
// exploration (seq) skips the stripe locks entirely — every phase is run by
// one goroutine.
type codeTable struct {
	seq     bool
	codes   []uint64
	stripes [numStripes]stripe
}

const numStripes = 64

type stripe struct {
	mu    sync.Mutex
	slots []tableSlot // open-addressing; id == emptySlot marks empty
	n     int         // occupied slots
	// The per-level pending set: code -> minimal stream position, stored
	// as pos+1 so a zero slot marks empty.
	pkeys []uint64
	ppos  []uint64
	pn    int
}

// tableSlot is 8 bytes: a 32-bit tag of the code's hash and the id.  The
// tag is bits 6..37 of splitmix64(code) (bits 0..5 pick the stripe), so its
// low bits are the slot index and grow rehashes from the tag alone.  Equal
// tags are confirmed against codes[id], so each code is stored once, in the
// codes the Space returns.
type tableSlot struct {
	tag uint32
	id  int32
}

const emptySlot = int32(-1)

// minStripeSize is the smallest size of a stripe's permanent and pending
// arrays.  It is small so that the 64 stripes of a table for a
// few-hundred-state instance cost a few kilobytes; a Def that declares no
// size doubles its stripes up in a handful of cheap early rehashes.
const minStripeSize = 8

// splitmix64 is the finaliser of the splitmix64 generator — a fast,
// well-mixed 64-bit hash for the packed codes (which are highly regular).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newCodeTable returns a table whose codes have capacity states and whose
// stripes are sized so that states codes, spread evenly, stay under the
// 62.5% load at which insert grows a stripe.
func newCodeTable(seq bool, states int) *codeTable {
	t := &codeTable{seq: seq, codes: make([]uint64, 0, states)}
	perStripe := (states + numStripes - 1) / numStripes
	size := max(1<<bits.Len(uint(perStripe*8/5)), minStripeSize)
	for i := range t.stripes {
		t.stripes[i].grow(size)
	}
	return t
}

func (s *stripe) grow(size int) {
	old := s.slots
	s.slots = make([]tableSlot, size)
	for i := range s.slots {
		s.slots[i].id = emptySlot
	}
	for _, sl := range old {
		if sl.id != emptySlot {
			s.place(sl)
		}
	}
}

func (s *stripe) place(sl tableSlot) {
	mask := uint32(len(s.slots) - 1)
	i := sl.tag & mask
	for s.slots[i].id != emptySlot {
		i = (i + 1) & mask
	}
	s.slots[i] = sl
}

// get returns the permanent id of code.  Safe for concurrent use while the
// permanent arrays are frozen (i.e. during a level's parallel phases).
func (t *codeTable) get(code uint64) (int32, bool) {
	h := splitmix64(code)
	s := &t.stripes[h&(numStripes-1)]
	tag := uint32(h >> 6)
	mask := uint32(len(s.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl.id == emptySlot {
			return 0, false
		}
		if sl.tag == tag && t.codes[sl.id] == code {
			return sl.id, true
		}
	}
}

// claim records that code was produced at stream position pos, keeping the
// minimal position across all claimants.  Callers must have checked get()
// first; a code that is both permanent and claimed would get two ids.
func (t *codeTable) claim(code uint64, pos uint64) {
	s := &t.stripes[splitmix64(code)&(numStripes-1)]
	if t.seq {
		s.claimLocked(code, pos)
		return
	}
	s.mu.Lock()
	s.claimLocked(code, pos)
	s.mu.Unlock()
}

func (s *stripe) claimLocked(code uint64, pos uint64) {
	if len(s.pkeys) == 0 || (s.pn+1)*8 >= len(s.pkeys)*5 {
		s.growPending()
	}
	mask := uint64(len(s.pkeys) - 1)
	i := (splitmix64(code) >> 6) & mask
	for {
		p := s.ppos[i]
		if p == 0 {
			s.pkeys[i] = code
			s.ppos[i] = pos + 1
			s.pn++
			return
		}
		if s.pkeys[i] == code {
			if pos+1 < p {
				s.ppos[i] = pos + 1
			}
			return
		}
		i = (i + 1) & mask
	}
}

func (s *stripe) growPending() {
	oldKeys, oldPos := s.pkeys, s.ppos
	size := max(2*len(s.pkeys), minStripeSize)
	s.pkeys = make([]uint64, size)
	s.ppos = make([]uint64, size)
	mask := uint64(size - 1)
	for i, p := range oldPos {
		if p == 0 {
			continue
		}
		j := (splitmix64(oldKeys[i]) >> 6) & mask
		for s.ppos[j] != 0 {
			j = (j + 1) & mask
		}
		s.pkeys[j] = oldKeys[i]
		s.ppos[j] = p
	}
}

// insert appends code to codes and gives it the next id.  Sequential-phase
// only; a caller inserting a batch reserves codes' capacity first.  A
// stripe grows at 62.5% load: probe chains stay short enough that the
// lock-free get() — the engine's hottest operation — averages under two
// probes.
func (t *codeTable) insert(code uint64) {
	h := splitmix64(code)
	s := &t.stripes[h&(numStripes-1)]
	if (s.n+1)*8 >= len(s.slots)*5 {
		s.grow(len(s.slots) * 2)
	}
	s.place(tableSlot{tag: uint32(h >> 6), id: int32(len(t.codes))})
	s.n++
	t.codes = append(t.codes, code)
}

// pendingEntry is one newly discovered code with its minimal stream
// position within the level that produced it.
type pendingEntry struct {
	code uint64
	pos  uint64
}

// drainPending collects and clears every stripe's pending set into dst's
// backing.  A level that outgrows it reallocates it at no less than twice
// its capacity, so an exploration whose levels widen one after another
// reallocates it O(log widest level) times, not once per level.
// Sequential-phase only.
func (t *codeTable) drainPending(dst []pendingEntry) []pendingEntry {
	total := 0
	for i := range t.stripes {
		total += t.stripes[i].pn
	}
	out := dst[:0]
	if cap(out) < total {
		out = make([]pendingEntry, 0, max(total, 2*cap(out)))
	}
	for i := range t.stripes {
		s := &t.stripes[i]
		if s.pn == 0 {
			continue
		}
		for j, p := range s.ppos {
			if p != 0 {
				out = append(out, pendingEntry{s.pkeys[j], p - 1})
			}
		}
		clear(s.ppos)
		s.pn = 0
	}
	return out
}
