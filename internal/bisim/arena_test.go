package bisim

import (
	"math/rand"
	"testing"
)

// arenaOp is one step of a random arena sequence: a mark, a release back
// to the latest open mark, or a hand-out of size elements from one of the
// two stacks.
type arenaOp struct {
	kind   int // opMark, opRelease or opTake
	wide   bool
	size   int
	zeroed bool
}

const (
	opMark = iota
	opRelease
	opTake
)

// randomArenaOps draws a sequence of steps that releases every mark it
// opens.
func randomArenaOps(r *rand.Rand, steps int) []arenaOp {
	var ops []arenaOp
	open := 0
	for len(ops) < steps || open > 0 {
		switch k := r.Intn(10); {
		case len(ops) >= steps || (k < 2 && open > 0):
			ops = append(ops, arenaOp{kind: opRelease})
			open--
		case k < 4:
			ops = append(ops, arenaOp{kind: opMark})
			open++
		default:
			// Mostly small hand-outs, now and then a large one, so some
			// fit the top chunk and some need a chunk of their own.
			size := r.Intn(16)
			if r.Intn(4) == 0 {
				size = r.Intn(600)
			}
			ops = append(ops, arenaOp{kind: opTake, wide: r.Intn(2) == 0, size: size, zeroed: r.Intn(2) == 0})
		}
	}
	return ops
}

// TestComputeArenaStack runs random mark / hand-out / release sequences
// over both stacks of one arena.  Every live hand-out is filled with its
// own stamp, and after every step each live hand-out must still hold its
// stamp, so no two live slices overlap; a zeroed hand-out must read zero,
// also when it is carved from released memory that holds old stamps.  Once
// a sequence is released to the bottom, replaying it on the arena
// allocates nothing.
func TestComputeArenaStack(t *testing.T) {
	type live struct {
		i32   []int32
		u64   []uint64
		stamp int
	}
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := randomArenaOps(r, 200)
		ar := new(computeArena)
		var lives []live
		var marks []arenaMark
		var depth []int // len(lives) at each open mark
		for step, op := range ops {
			switch op.kind {
			case opMark:
				marks = append(marks, ar.mark())
				depth = append(depth, len(lives))
			case opRelease:
				ar.release(marks[len(marks)-1])
				lives = lives[:depth[len(depth)-1]]
				marks, depth = marks[:len(marks)-1], depth[:len(depth)-1]
			case opTake:
				l := live{stamp: step + 1}
				if op.wide {
					l.u64 = ar.u64s(op.size, op.zeroed)
				} else {
					l.i32 = ar.i32s(op.size, op.zeroed)
				}
				if len(l.i32)+len(l.u64) != op.size {
					t.Fatalf("seed %d step %d: asked for %d elements, got %d", seed, step, op.size, len(l.i32)+len(l.u64))
				}
				if op.zeroed {
					for i := range l.i32 {
						if l.i32[i] != 0 {
							t.Fatalf("seed %d step %d: zeroed int32 hand-out holds %d at %d", seed, step, l.i32[i], i)
						}
					}
					for i := range l.u64 {
						if l.u64[i] != 0 {
							t.Fatalf("seed %d step %d: zeroed uint64 hand-out holds %d at %d", seed, step, l.u64[i], i)
						}
					}
				}
				for i := range l.i32 {
					l.i32[i] = int32(l.stamp)
				}
				for i := range l.u64 {
					l.u64[i] = uint64(l.stamp)
				}
				lives = append(lives, l)
			}
			for _, l := range lives {
				for i := range l.i32 {
					if l.i32[i] != int32(l.stamp) {
						t.Fatalf("seed %d step %d: the int32 hand-out of step %d was overwritten by another live hand-out", seed, step, l.stamp-1)
					}
				}
				for i := range l.u64 {
					if l.u64[i] != uint64(l.stamp) {
						t.Fatalf("seed %d step %d: the uint64 hand-out of step %d was overwritten by another live hand-out", seed, step, l.stamp-1)
					}
				}
			}
		}
		// Release what the sequence took below its first mark.
		ar.release(arenaMark{})

		// The first replay is the one that must fit in the chunks the
		// sequence left behind.  An arena allocates only when it makes a
		// chunk or grows its in-use list, so both are compared; the heap
		// statistics would also count other goroutines' allocations.
		footprint := func() [4]int {
			return [4]int{len(ar.i32.chunks), cap(ar.i32.used), len(ar.u64.chunks), cap(ar.u64.used)}
		}
		before := footprint()
		for _, op := range ops {
			switch op.kind {
			case opMark:
				marks = append(marks, ar.mark())
			case opRelease:
				ar.release(marks[len(marks)-1])
				marks = marks[:len(marks)-1]
			case opTake:
				if op.wide {
					ar.u64s(op.size, op.zeroed)
				} else {
					ar.i32s(op.size, op.zeroed)
				}
			}
		}
		ar.release(arenaMark{})
		if after := footprint(); after != before {
			t.Errorf("seed %d: replaying a released sequence of %d steps allocated: chunks and in-use capacities %v, then %v",
				seed, len(ops), before, after)
		}
	}
}
