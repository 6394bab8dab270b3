// Package server is the serving layer's front end: the networked
// server (net.go), which answers every request through a query.Engine
// and its one answer cache, its admission control (admission.go) and
// metrics endpoint (stats.go). The chaos and fleet soaks that gate its
// safety are tests of this package.
package server
