package user

import "pinned"

// A test may use a pinned name.
func pinnedInTest() int { return pinned.Old() }
