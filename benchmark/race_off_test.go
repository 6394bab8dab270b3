//go:build !race

package main

const smokeWindow = 1
