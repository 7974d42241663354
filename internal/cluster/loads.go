package cluster

import "math"

// Loads is the routing signal at a handoff barrier: every cell's pending
// load, held in a tournament tree so that the least-loaded cell other than
// a roamer's origin is found in O(log cells), and a load change is
// re-ranked in O(log cells). Ties go to the lowest cell index.
//
// Leaves sit at win[size+i]; internal node k holds the winner of its two
// children, the lower (load, index) pair. Padding leaves past the last cell
// carry math.MaxInt and the highest indices, so they never beat a cell.
type Loads struct {
	n    int
	size int     // leaf count: a power of two ≥ n
	load []int   // by cell, padded to size
	win  []int32 // tournament winners by node; leaves at size..2·size-1
}

// NewLoads returns a Loads holding a copy of loads.
func NewLoads(loads []int) *Loads {
	l := &Loads{}
	l.Reset(loads)
	return l
}

// Reset replaces every cell's load with loads (one entry per cell) and
// rebuilds the tree in O(cells), reusing its storage.
func (l *Loads) Reset(loads []int) {
	l.n = len(loads)
	if l.size < l.n || l.size == 0 {
		l.size = 1
		for l.size < l.n {
			l.size *= 2
		}
		l.load = make([]int, l.size)
		l.win = make([]int32, 2*l.size)
		for i := range l.load {
			l.win[l.size+i] = int32(i)
		}
	}
	copy(l.load, loads)
	for i := l.n; i < len(l.load); i++ {
		l.load[i] = math.MaxInt
	}
	for k := l.size - 1; k >= 1; k-- {
		l.win[k] = l.better(l.win[2*k], l.win[2*k+1])
	}
}

// Load returns cell i's current load.
func (l *Loads) Load(i int) int { return l.load[i] }

// Add changes cell i's load by delta and re-ranks it.
func (l *Loads) Add(i, delta int) {
	l.load[i] += delta
	for k := (l.size + i) / 2; k >= 1; k /= 2 {
		l.win[k] = l.better(l.win[2*k], l.win[2*k+1])
	}
}

// ArgMinExcept returns the least-loaded cell other than src, lowest index
// winning ties, or -1 when src is the only cell. The cells other than src
// are exactly the subtrees hanging off src's leaf-to-root path, so the
// answer is the best of their winners.
func (l *Loads) ArgMinExcept(src int) int {
	best := int32(-1)
	for k := l.size + src; k > 1; k /= 2 {
		w := l.win[k^1]
		if int(w) >= l.n {
			continue // an all-padding subtree
		}
		if best < 0 || l.better(w, best) == w {
			best = w
		}
	}
	return int(best)
}

// better returns the lower of two cells by (load, index).
func (l *Loads) better(a, b int32) int32 {
	if la, lb := l.load[a], l.load[b]; la < lb || (la == lb && a < b) {
		return a
	}
	return b
}
