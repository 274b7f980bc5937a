package flight

import _ "unsafe" // for go:linkname

// nanotime is the runtime's monotonic clock, the module's only one: the
// flight recorder phase-times every decision and looptrace stamps every
// loop event with it, on hot paths where apollo-vet bans time.Now.
// It is the raw vDSO read under time.Now, with no allocation or lock.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// Now returns the monotonic time in nanoseconds from an arbitrary zero
// (process start): only differences are meaningful. Callers on
// //apollo:hotpath functions may use it freely.
//
//apollo:hotpath
func Now() int64 { return nanotime() }
