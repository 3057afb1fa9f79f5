package ljoin

// leapfrog intersects the current level of several trie iterators: it
// enumerates, in increasing order, the values present in all of them. This
// is the unary "leapfrog join" the multiway Tributary join is built from.
type leapfrog struct {
	iters []*arrayTrie
	p     int // index of the iterator with the smallest key
	atEnd bool
}

// init positions the leapfrog at the first common value (or at the end).
// Every iterator must already be Open()ed at the level being joined.
func (l *leapfrog) init() {
	l.atEnd = false
	for _, it := range l.iters {
		if it.AtEnd() {
			l.atEnd = true
			return
		}
	}
	// Insertion sort by key: there are a handful of iterators.
	for i := 1; i < len(l.iters); i++ {
		for j := i; j > 0 && l.iters[j].Key() < l.iters[j-1].Key(); j-- {
			l.iters[j], l.iters[j-1] = l.iters[j-1], l.iters[j]
		}
	}
	l.p = 0
	l.search(l.iters[len(l.iters)-1].Key())
}

// search advances iterators round-robin, from iterator p, until all agree
// on one key; max is the largest key among them.
func (l *leapfrog) search(max int64) {
	for {
		it := l.iters[l.p]
		lv := it.cur()
		if lv.key == max {
			return // all iterators agree
		}
		it.seekGE(lv, max)
		if lv.end {
			l.atEnd = true
			return
		}
		max = lv.key
		l.step()
	}
}

// step makes the next iterator, round-robin, the current one.
func (l *leapfrog) step() {
	if l.p++; l.p == len(l.iters) {
		l.p = 0
	}
}

// key returns the common value. Valid only when !atEnd.
func (l *leapfrog) key() int64 { return l.iters[l.p].Key() }

// next advances past the current common value to the following one.
func (l *leapfrog) next() {
	it := l.iters[l.p]
	lv := it.cur()
	it.next(lv)
	l.moved(lv)
}

// seek advances to the least common value ≥ v.
func (l *leapfrog) seek(v int64) {
	it := l.iters[l.p]
	lv := it.cur()
	it.seekGE(lv, v)
	l.moved(lv)
}

// moved continues the search after the current iterator moved to lv's
// key, which is now the largest.
func (l *leapfrog) moved(lv *level) {
	if lv.end {
		l.atEnd = true
		return
	}
	l.step()
	l.search(lv.key)
}
