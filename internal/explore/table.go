package explore

import "sync"

// codeTable maps packed uint64 codes to int32 state ids.  It is an
// open-addressing hash table striped 64 ways: each stripe owns a permanent
// keys/ids array plus a per-level pending set (also open addressing)
// guarded by the stripe mutex.  During a level's parallel phase the
// permanent arrays are read-only (they grow only in the sequential renumber
// pass between levels), so get() runs lock-free; only claims on genuinely
// new codes take a stripe lock.  A table created for a single-worker
// exploration (seq) skips the stripe locks entirely — every phase is run by
// one goroutine.
type codeTable struct {
	seq     bool
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

// tableSlot keeps a code and its id adjacent, so a probe costs a single
// cache line instead of one miss in a key array plus one in an id array.
type tableSlot struct {
	key uint64
	id  int32
}

const emptySlot = int32(-1)

// minStripeSize is the initial size of a stripe's permanent and pending
// arrays.  It is small so that the 64 stripes of a table for a
// few-hundred-state instance cost a few kilobytes; large spaces double
// their way up in a handful of cheap early rehashes.
const minStripeSize = 8

// splitmix64 is the finaliser of the splitmix64 generator — a fast,
// well-mixed 64-bit hash for the packed codes (which are highly regular).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newCodeTable(seq bool) *codeTable {
	t := &codeTable{seq: seq}
	for i := range t.stripes {
		t.stripes[i].grow(minStripeSize)
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
			s.place(sl.key, sl.id)
		}
	}
}

func (s *stripe) place(code uint64, id int32) {
	mask := uint64(len(s.slots) - 1)
	i := (splitmix64(code) >> 6) & mask
	for s.slots[i].id != emptySlot {
		i = (i + 1) & mask
	}
	s.slots[i] = tableSlot{key: code, id: id}
}

// get returns the permanent id of code.  Safe for concurrent use while the
// permanent arrays are frozen (i.e. during a level's parallel phases).
func (t *codeTable) get(code uint64) (int32, bool) {
	h := splitmix64(code)
	s := &t.stripes[h&(numStripes-1)]
	mask := uint64(len(s.slots) - 1)
	i := (h >> 6) & mask
	for {
		sl := s.slots[i]
		if sl.id == emptySlot {
			return 0, false
		}
		if sl.key == code {
			return sl.id, true
		}
		i = (i + 1) & mask
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

// insert adds code with a permanent id.  Sequential-phase only.  The table
// grows at 62.5% load: probe chains stay short enough that the lock-free
// get() — the engine's hottest operation — averages under two probes.
func (t *codeTable) insert(code uint64, id int32) {
	s := &t.stripes[splitmix64(code)&(numStripes-1)]
	if (s.n+1)*8 >= len(s.slots)*5 {
		s.grow(len(s.slots) * 2)
	}
	s.place(code, id)
	s.n++
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
