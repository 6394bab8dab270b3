//go:build race

package main

// smokeWindow is longer under the race detector: at a tenth of the speed a
// 1 s window leaves most of plan_join's sub-windows without a completion.
const smokeWindow = 4
