package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// reqKind is one class of the service's traffic mix.
type reqKind int

const (
	warmReq reqKind = iota // repeat sync request for a live system
	coldReq                // first sync request for a new inline SoC
	jobReq                 // async job followed over SSE to done
)

func (k reqKind) String() string { return [...]string{"warm", "cold", "job"}[k] }

// arrivals returns n due times in [0, d): a Poisson process conditioned on
// exactly n arrivals in the window, which is n sorted uniform draws. Fixing n
// makes every run of a seed serve the same requests.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// kinds returns n request kinds with exactly the given shares of cold and job
// requests (rounded), in a seeded random order.
func kinds(rng *rand.Rand, n int, coldShare, jobShare float64) []reqKind {
	out := make([]reqKind, n)
	nc := int(math.Round(coldShare * float64(n)))
	nj := int(math.Round(jobShare * float64(n)))
	for i := range out {
		switch {
		case i < nc:
			out[i] = coldReq
		case i < nc+nj:
			out[i] = jobReq
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// spinSlack is how long before a due time a sender stops sleeping and
// starts yielding in a loop. Senders sleep in nanosleep rather than on a
// runtime timer: runtime timers wake up to a millisecond late when the
// process is idle, which would count as generator lateness, and spinning
// through that millisecond instead would take a processor from the service.
const spinSlack = 100 * time.Microsecond

// waitUntil returns at t, sleeping for most of the wait and yielding the
// processor for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
