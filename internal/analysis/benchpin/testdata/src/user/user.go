// Package user calls the one path, and once, the planted violation, the
// pinned wrapper.
package user

import "pinned"

func ok() int { return pinned.New() }

func planted() int { return pinned.Old() } // want `Old is pinned for benchmark/ only \(pinned/benchpin.go:4\)`
