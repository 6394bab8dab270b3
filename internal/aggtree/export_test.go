package aggtree

// Test-only reads: balance and point lookups the serving path never makes.

// Height returns the longest root-to-leaf path length (0 for an empty
// tree), for balance diagnostics.
func (t *Tree) Height() int { return height(t.root) }

func height(n *node) int {
	if n == nil {
		return 0
	}
	l, r := height(n.left), height(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Get returns the entry stored under key.
func (t *Tree) Get(key int64) (Entry, bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.Key:
			n = n.left
		case key > n.Key:
			n = n.right
		default:
			return n.Entry, true
		}
	}
	return Entry{}, false
}
