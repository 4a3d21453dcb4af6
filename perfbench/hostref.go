package main

import (
	"fmt"
	"math/rand/v2"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On a shared 2-core VM a fixed CPU loop runs
// 15-40% slower for seconds to minutes at a time, with no steal time
// showing, so the wall-clock median of one 30 s run says as much about
// the host's neighbours as about the program: ten runs of unchanged code
// spread by up to 31% in op_p50_ms. The benchmark therefore times a
// fixed reference loop — code of its own that calls nothing in the
// repository and allocates nothing — interleaved with the work it
// measures (before every set-up, and after every operation of the
// closed-loop workloads), and reports each gated timing at the
// reference host speed:
//
//	reported = measured wall-clock median × refNominalMs / median(probes)
//
// A change to the program moves the measured time and not the
// reference, so it shows in full; a host that runs everything 30%
// slower moves both, and cancels. The correction is partial: from run
// to run record-replay's wall-clock median follows the reference with
// a correlation of 0.98 but moves 1.6 times as far (campaign ~2.6), so
// it removes half to two thirds of the drift; over ten 30 s runs the
// spread (IQR over median) of op_p50_ms fell from 0.09-0.22 to
// 0.03-0.10 on record-replay and from 0.07-0.11 to 0.02-0.07 on
// campaign. The raw wall-clock medians stay visible as the per-layer
// bench.wall_setup_s and bench.wall_op_p50_ms, and the factor as
// bench.host_speed.
//
// serve's op_p50_ms is not corrected (no probes, bench.host_speed 1).
// At its base rate the service is idle most of the time, and a job's
// latency is hand-offs between goroutines, a loopback round trip and
// journal fsyncs, none of which slow in step with a busy core. A probe
// in that mostly idle process times a core woken from idle instead:
// with two CPU-bound processes running beside the benchmark, probes
// taken every 50 ms of the base phase read 12% faster while the jobs
// ran 10% slower. Its set-up is corrected like the others'.
//
// A reference that misses the caches would be a poor clock: the
// program's own footprint would decide what it finds there (a 4 MiB
// chase ran 5 times slower inside the benchmark than alone). This one
// warms its 128 KiB table before timing and then stays in the core's
// private caches. A chase through 4 MiB of warmed L3, and the same loop
// run on both cores at once, tracked the program worse (correlation
// 0.55-0.58).

// refNominalMs is the reference loop's median on the 2-core x86-64 VM
// the bounds were set on, in a quiet spell: the host speed the gated
// timings are expressed at. It is a unit, not a measurement of the
// current host; changing it rescales every gated timing.
const refNominalMs = 1.2

const (
	refWords = 1 << 15 // 128 KiB of uint32: inside a core's L2
	refSteps = 25000
)

// refNext holds one random cycle through all refWords slots (Sattolo's
// algorithm), built once from a fixed seed: every probe chases the same
// dependent-load chain. The table is mapped outside the Go heap, so it
// neither counts in mem_live_mb nor gives the collector anything to
// scan.
var refNext = func() []uint32 {
	r := rand.New(rand.NewPCG(0x686f7374, 0x726566))
	mem, err := syscall.Mmap(-1, 0, 4*refWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("mapping the reference table: %v", err))
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		j := r.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}()

// refSink keeps the compiler from dropping the loop.
var refSink uint32

// refWarm brings the table into the core's caches.
func refWarm() {
	var h uint32
	for _, v := range refNext {
		h += v
	}
	refSink += h
}

// refLoop is the fixed reference work: a dependent pointer chase mixed
// with branchy hashing, the two things the program's DOM and script
// code spend their time on.
func refLoop() {
	h, i := uint32(2166136261), uint32(0)
	for k := 0; k < refSteps; k++ {
		i = refNext[i]
		h = (h ^ i) * 16777619
		for b := h & 7; b > 0; b-- {
			if h&(1<<b) != 0 {
				h ^= h >> b
			} else {
				h += i << b
			}
		}
	}
	refSink += h
}

// probe times one run of the reference loop into s.
func probe(s *samples) {
	refWarm()
	t := time.Now()
	refLoop()
	s.add(ms(time.Since(t)))
}

// hostSpeed is refNominalMs over the reference's median: above 1 on a
// host faster than the nominal one, below 1 on a slower one.
func hostSpeed(ref *samples) float64 {
	if ref.n() == 0 {
		return 1
	}
	return refNominalMs / ref.median()
}
