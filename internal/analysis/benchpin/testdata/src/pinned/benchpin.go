package pinned

// Old is pinned: only a benchmark and tests may call it.
func Old() int { return New() + helper() }

// helper is the pinned file's own, which it may use.
func helper() int { return 0 }
