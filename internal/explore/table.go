package explore

import (
	"math"
	"sync"
)

// codeTable maps packed uint64 codes to int32 state ids, and owns the codes
// themselves: codes[id] is state id's code, appended by insert.  It is an
// open-addressing hash table striped 64 ways: each stripe owns a permanent
// slot array plus a per-level pending list guarded by the stripe mutex.
// During a level's parallel phases the permanent arrays and codes are
// read-only (they grow only in the sequential renumber pass between
// levels), so get() runs lock-free; only claims on genuinely new codes take
// a stripe lock.  A table created for a single-worker exploration (seq)
// skips the stripe locks entirely — every phase is run by one goroutine.
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
	// The per-level pending list of new codes, and an open-addressing
	// index into it: entry index + 1 (zero marks empty), confirmed
	// against the entry's code.
	pend []pendingEntry
	pidx []int32
}

// tableSlot is 8 bytes: a 32-bit tag of the code's hash and the id.  The
// tag is bits 6..37 of splitmix64(code) (bits 0..5 pick the stripe), and a
// stripe of any size maps it to a home slot by multiply-shift (home), so
// grow rehashes from the tag alone.  Equal tags are confirmed against
// codes[id], so each code is stored once, in the codes the Space returns.
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
// stripes are sized (stripeSlots) so that states codes stay under the
// 62.5% load at which insert grows a stripe.
func newCodeTable(seq bool, states int) *codeTable {
	t := &codeTable{seq: seq, codes: make([]uint64, 0, states)}
	size := stripeSlots(states)
	for i := range t.stripes {
		t.stripes[i].grow(size)
	}
	return t
}

// stripeSlots returns the slot count of a stripe of a table expected to
// hold states codes: room under the 62.5% load for the stripe's share plus
// four standard deviations of it, exactly, not rounded up to a power of
// two.  A stripe's share of uniformly hashed codes is binomial with
// variance about the share itself, so without the slack about half the
// stripes would overflow and double.
func stripeSlots(states int) int {
	share := float64(states) / numStripes
	fit := int(math.Ceil(share + 4*math.Sqrt(share)))
	return max(fit*8/5+1, minStripeSize)
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

// home returns the slot at which tag's probe sequence starts in a stripe
// of n slots: the multiply-shift range reduction (Lemire, arXiv:1805.10941)
// of the 32-bit tag, so n need not be a power of two.
func home(tag uint32, n int) int { return int(uint64(tag) * uint64(n) >> 32) }

func (s *stripe) place(sl tableSlot) {
	i := home(sl.tag, len(s.slots))
	for s.slots[i].id != emptySlot {
		if i++; i == len(s.slots) {
			i = 0
		}
	}
	s.slots[i] = sl
}

// get returns the permanent id of code.  Safe for concurrent use while the
// permanent arrays are frozen (i.e. during a level's parallel phases).
func (t *codeTable) get(code uint64) (int32, bool) {
	h := splitmix64(code)
	slots := t.stripes[h&(numStripes-1)].slots
	tag := uint32(h >> 6)
	for i := home(tag, len(slots)); ; {
		sl := slots[i]
		if sl.id == emptySlot {
			return 0, false
		}
		if sl.tag == tag && t.codes[sl.id] == code {
			return sl.id, true
		}
		if i++; i == len(slots) {
			i = 0
		}
	}
}

// maxPendingEntries bounds a stripe's pending list: a handle keeps 25 bits
// for the entry index.  A variable so a test can reach it cheaply.
var maxPendingEntries = 1 << 25

// claim records that code was produced at stream position pos, keeping the
// minimal position across all claimants, and returns the handle of code's
// pending entry, entryIndex<<6 | stripe.  The handle stays valid when the
// stripe's index rehashes.  It reports false, claiming nothing, when a new
// entry would not fit a handle.  Callers must have checked get() first; a
// code that is both permanent and claimed would get two ids.
func (t *codeTable) claim(code uint64, pos uint64) (int32, bool) {
	h := splitmix64(code)
	i := int(h & (numStripes - 1))
	s := &t.stripes[i]
	if !t.seq {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	e, ok := s.claimLocked(code, h, pos)
	return int32(e<<6 | i), ok
}

// claimLocked returns the index of code's entry in the stripe's pending
// list, appending the entry if code is new; h is splitmix64(code).
func (s *stripe) claimLocked(code, h, pos uint64) (int, bool) {
	if (len(s.pend)+1)*8 >= len(s.pidx)*5 {
		s.growPending()
	}
	mask := uint64(len(s.pidx) - 1)
	for i := (h >> 6) & mask; ; i = (i + 1) & mask {
		e := int(s.pidx[i]) - 1
		if e < 0 {
			if len(s.pend) >= maxPendingEntries {
				return 0, false
			}
			s.pidx[i] = int32(len(s.pend) + 1)
			s.pend = append(s.pend, pendingEntry{code, pos})
			return len(s.pend) - 1, true
		}
		if p := &s.pend[e]; p.code == code {
			p.val = min(p.val, pos)
			return e, true
		}
	}
}

// growPending doubles the stripe's pending index and rehashes its entries.
func (s *stripe) growPending() {
	s.pidx = make([]int32, max(2*len(s.pidx), minStripeSize))
	mask := uint64(len(s.pidx) - 1)
	for e, p := range s.pend {
		i := (splitmix64(p.code) >> 6) & mask
		for s.pidx[i] != 0 {
			i = (i + 1) & mask
		}
		s.pidx[i] = int32(e + 1)
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

// pendingEntry is one newly discovered code of a level.  Its val is the
// minimal stream position that produced the code until phase B numbers
// it, and its new id after.
type pendingEntry struct {
	code uint64
	val  uint64
}

// entry returns the pending entry a claim handle names.
func (t *codeTable) entry(h int32) *pendingEntry {
	return &t.stripes[h&(numStripes-1)].pend[h>>6]
}

// drainPending collects the handle of every stripe's pending entry into
// dst's backing.  A level that outgrows it reallocates it at no less than
// twice its capacity, so an exploration whose levels widen one after
// another reallocates it O(log widest level) times, not once per level.
// The entries stay until resetPending.  Sequential-phase only.
func (t *codeTable) drainPending(dst []int32) []int32 {
	total := 0
	for i := range t.stripes {
		total += len(t.stripes[i].pend)
	}
	out := dst[:0]
	if cap(out) < total {
		out = make([]int32, 0, max(total, 2*cap(out)))
	}
	for i := range t.stripes {
		for e := range t.stripes[i].pend {
			out = append(out, int32(e<<6|i))
		}
	}
	return out
}

// resetPending empties every stripe's pending list and index for the next
// level, keeping their backing.  Sequential-phase only.
func (t *codeTable) resetPending() {
	for i := range t.stripes {
		s := &t.stripes[i]
		if len(s.pend) > 0 {
			s.pend = s.pend[:0]
			clear(s.pidx)
		}
	}
}

// releasePending drops every stripe's pending list and index once an
// exploration is over: the Space keeps the table for Lookup, which reads
// only the slots and the codes.
func (t *codeTable) releasePending() {
	for i := range t.stripes {
		t.stripes[i].pend, t.stripes[i].pidx = nil, nil
	}
}
