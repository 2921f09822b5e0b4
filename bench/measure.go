package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is the result of one end-to-end run: the ten metrics plus the
// counts that say how much was measured.
type endToEnd struct {
	metrics   map[string]metric
	raw       map[string]float64 // the clock-read metrics before speed normalisation
	speed     float64            // the box's memory speed over the phase, 1 = nominal (see speedRef)
	attempted int
	spiked    int // turns with no latency sample: a device spike beyond the flush model
	failed    int
	failure   string
	passes    int
	askMs     []float64 // every timed ask, sorted: the samples behind the ask percentiles
	fbMs      []float64 // every timed feedback turn, sorted
	passSec   []float64
}

// passesFor sizes the timed phase: a fixed pass count from the requested
// seconds and the workload's calibration constant.
func passesFor(spec workloadSpec, seconds int) int {
	n := int(float64(seconds)*spec.passesPer10s/10 + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// blockPasses is how many consecutive passes make one block, the unit the
// CPU cost is taken over: about a quarter of a second of work, so that a
// block is many scheduler ticks long (the kernel charges CPU time by the
// tick) and holds several garbage-collection cycles.
func blockPasses(spec workloadSpec) int {
	n := int(math.Round(spec.passesPer10s / 40))
	if n < 1 {
		n = 1
	}
	return n
}

// cpuSeconds is the process's user+system CPU time. It includes the
// concurrent garbage collector on the second core, which a one-client wall
// clock hides.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// phaseLimit is how long a timed phase of nominally seconds may run before
// it is cut short.
func phaseLimit(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second * 5 / 2
}

// ----------------------------------------------------------------------------
// The speed reference.
//
// The box is a small VM on a shared host. Its arithmetic speed repeats to
// half a percent, but the speed of its memory system — what a program that
// chases pointers through maps, strings and rows runs at — wanders by 30–45%
// over tens of seconds to minutes as the neighbours' traffic comes and goes
// (NOISE.md, "What the noise is"). No statistic over a 25 s run sees past a
// drift that outlasts the run, so the harness measures the drift instead:
// between units of work it times a fixed read of a 32 MB array, a kernel that
// does nothing but wait for memory, and every clock-read metric of a
// CPU-bound workload is reported at the nominal speed of that read:
//
//	reported = measured × nominal read time ÷ median read time of the run
//
// Of the six kernels tried (arithmetic, two pointer walks, a warm re-walk,
// this read, a map-and-JSON mix) the read tracked all three CPU-bound
// workloads best: over 21 runs each it took the run-to-run standard
// deviation of their timings from 6–8% to 3–4% (NOISE.md). A change to the
// program moves the measured time and not the read, so it shows in full. The
// raw values and the factor are printed beside the report.

const (
	refWords = 4 << 20 // 32 MB of uint64: several times this VM's share of the last-level cache
	// refNominalNs is what one read takes at nominal speed: 9.3 GB/s, the
	// middle of the range this box moved over while the probe was calibrated.
	refNominalNs = 3.6e6
	refReads     = 3
)

// speedRef is the memory-speed probe.
type speedRef struct {
	words   []uint64
	samples []float64 // nanoseconds per sample, in the order taken
	spentNs int64     // total time spent sampling
	sink    uint64
}

func newSpeedRef() *speedRef {
	r := &speedRef{samples: make([]float64, 0, 1024)}
	// The array is mapped, not allocated: it must not show in heap_live_mb
	// or give the collector 32 MB to account for.
	if mem, err := syscall.Mmap(-1, 0, refWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		r.words = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refWords)
	} else {
		r.words = make([]uint64, refWords)
	}
	for i := range r.words {
		r.words[i] = uint64(i) // touches every page: no faults while sampling
	}
	return r
}

// sample times one read of the array.
func (r *speedRef) sample() {
	begin := time.Now()
	// Three reads, the fastest kept: the first starts while the collector
	// may still be finishing the cycle the work before it triggered, and
	// shares the memory system with it.
	best := time.Duration(1 << 62)
	for k := 0; k < refReads; k++ {
		t0 := time.Now()
		var sum uint64
		for _, v := range r.words {
			sum += v
		}
		d := time.Since(t0)
		r.sink += sum
		if d < best {
			best = d
		}
	}
	r.samples = append(r.samples, float64(best))
	r.spentNs += int64(time.Since(begin))
}

func (r *speedRef) take(n int) {
	for i := 0; i < n; i++ {
		r.sample()
	}
}

// memShare is the share of a CPU-bound workload's time that moves with the
// probe: when the read takes 30% longer, the program takes 0.6 × 30% longer.
// Fitted over 36 runs of the three CPU-bound workloads taken while the
// host's speed ranged over ±20% (NOISE.md): the slopes were 0.5–0.7 for
// every metric, and 0.6 left the least spread over all of them.
const memShare = 0.6

// slowdown is how much slower than at nominal memory speed a CPU-bound
// workload ran over the samples taken since mark (a previous
// len(r.samples)): 1 at nominal speed, 1 + memShare × 0.3 when a read took
// 30% longer. Dividing a measured time by it gives the time at nominal speed.
func (r *speedRef) slowdown(mark int) float64 {
	if r == nil || len(r.samples) <= mark {
		return 1
	}
	return 1 - memShare + memShare*median(r.samples[mark:])/refNominalNs
}

// ----------------------------------------------------------------------------

// latencyBlock is the least number of samples a latency percentile is taken
// over — with a thousand, ten lie beyond the 99th — and latencyBlocks the
// most blocks a run is cut into: a 99th percentile is an order statistic of
// a thin tail, and five large blocks estimate it about as well as the whole
// run pooled, where thirty small ones do not.
const (
	latencyBlock  = 1000
	latencyBlocks = 5
)

// blockPercentile cuts the samples, which are in the order they were taken,
// into up to latencyBlocks consecutive blocks of at least latencyBlock, takes
// the q-th percentile of each and returns the median block's. A block is a
// few seconds of turns, so this is to latency what the median pass is to
// throughput: a stall or a collection that hits turns all through the run is
// in every block's percentile, a bad episode on the host is in one or two
// blocks and does not set the run's number. sortedMs is all the samples
// sorted, for the case of a single block.
func blockPercentile(ns []int64, sortedMs []float64, q float64) float64 {
	blocks := min(len(ns)/latencyBlock, latencyBlocks)
	if blocks <= 1 {
		return percentile(sortedMs, q)
	}
	size := len(ns) / blocks
	per := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		end := (b + 1) * size
		if b == blocks-1 {
			end = len(ns)
		}
		per = append(per, percentile(pooledMs(ns[b*size:end]), q))
	}
	return median(per)
}

// pooledMs returns latency samples sorted, in milliseconds.
func pooledMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// phase sizes and configures one timed phase.
type phase struct {
	passes int           // fixed work: this many passes, in blocks of block
	block  int           // passes per block, the unit CPU time is taken over
	limit  time.Duration // safety valve for a box far slower than the reference
	setupS float64       // the measured set-up time behind setup_s
	// ref, when set, is the speed probe: sampled every probeEvery sessions
	// by a single client (between passes when there are several), and the
	// CPU cost is reported at its nominal speed. normalise extends that to
	// the wall-clock metrics; it is off for a device-bound workload, whose
	// turn is mostly a wait that the memory system's speed does not move.
	ref        *speedRef
	probeEvery int
	normalise  bool
}

func phaseFor(spec workloadSpec, seconds int, setupS float64, ref *speedRef) phase {
	return phase{passes: passesFor(spec, seconds), block: blockPasses(spec), limit: phaseLimit(seconds),
		setupS: setupS, ref: ref, probeEvery: spec.probeEvery, normalise: !spec.deviceBound}
}

// timedPhase runs ph.passes passes of inst and derives the end-to-end
// metrics. Nothing time-triggered runs inside it: no tickers, no TTLs, no
// health loop — the only clock reads are the stopwatches around turns,
// passes and blocks, and the speed probe's.
//
// Every timing is a median over the run of a statistic that already holds
// the stalls: the throughput is the script's turns over the median pass, the
// latency percentiles are the median block's (blockPercentile), the CPU cost
// is the median block's. A collection, a lock wait or a slow turn that
// recurs through the run is in every pass and every block, and so in the
// numbers; a few bad seconds on the host are not.
func timedPhase(inst instance, ph phase) *endToEnd {
	sc := inst.script()
	passes, block, ref := ph.passes, ph.block, ph.ref
	if block < 1 {
		block = 1
	}
	if passes < block {
		block = passes
	}
	passes -= passes % block
	rec := &recorder{
		askNs: make([]int64, 0, passes*sc.asks),
		fbNs:  make([]int64, 0, passes*sc.feedbacks),
	}
	if inst.clients() == 1 && ph.probeEvery > 0 {
		// One client: the probe runs between sessions, on the client's own
		// thread, while nothing else does.
		rec.ref, rec.probeEvery = ref, ph.probeEvery
	}
	passSec := make([]float64, 0, passes)
	blockCPU := make([]float64, 0, passes/block)
	turns := float64(sc.turns())
	mark := 0
	if ref != nil {
		mark = len(ref.samples)
	}
	spent := func() int64 {
		if ref == nil {
			return 0
		}
		return ref.spentNs
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	done := 0
	for done < passes {
		c0, r0 := cpuSeconds(), spent()
		for k := 0; k < block; k++ {
			if ref != nil && rec.ref == nil {
				// Several clients: the probe runs between passes, when every
				// client has stopped.
				ref.take(4)
			}
			t0, p0 := time.Now(), spent()
			inst.pass(rec)
			// The probe is the harness's, not the program's: its time is
			// taken off the pass and (it is one busy thread) off the CPU.
			passSec = append(passSec, (time.Since(t0) - time.Duration(spent()-p0)).Seconds())
		}
		cpu := cpuSeconds() - c0 - float64(spent()-r0)/1e9
		blockCPU = append(blockCPU, cpu*1e6/(turns*float64(block)))
		done += block
		if time.Since(begin) > ph.limit {
			// Safety valve, checked between blocks only: on a box several
			// times slower than the reference the run must still end. The
			// counts then differ from a full run's, and the report says so.
			break
		}
	}
	runtime.ReadMemStats(&m1)
	if tw, ok := inst.(interface{ cpuTwin() instance }); ok && tw.cpuTwin() != nil {
		blockCPU = twinCPU(tw.cpuTwin(), rec, ref)
	}
	// Live heap with the last pass's sessions still open: what the program
	// holds on to, not what it churns through.
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)

	total := turns * float64(done)
	ask, fb := pooledMs(rec.askNs), pooledMs(rec.fbNs)
	slow := ref.slowdown(mark)
	raw := map[string]float64{
		"turns_per_s":     turns / median(passSec),
		"ask_p50_ms":      blockPercentile(rec.askNs, ask, 0.50),
		"ask_p99_ms":      blockPercentile(rec.askNs, ask, 0.99),
		"feedback_p50_ms": blockPercentile(rec.fbNs, fb, 0.50),
		"feedback_p99_ms": blockPercentile(rec.fbNs, fb, 0.99),
		"cpu_us_per_turn": median(blockCPU),
		"setup_s":         ph.setupS,
	}
	wall := slow
	if !ph.normalise {
		wall = 1
	}
	return &endToEnd{
		metrics: map[string]metric{
			// The set-up ran seconds before the phase, in the same weather.
			"setup_s":           {ph.setupS / wall, "s"},
			"turns_per_s":       {raw["turns_per_s"] * wall, "1/s"},
			"ask_p50_ms":        {raw["ask_p50_ms"] / wall, "ms"},
			"ask_p99_ms":        {raw["ask_p99_ms"] / wall, "ms"},
			"feedback_p50_ms":   {raw["feedback_p50_ms"] / wall, "ms"},
			"feedback_p99_ms":   {raw["feedback_p99_ms"] / wall, "ms"},
			"cpu_us_per_turn":   {raw["cpu_us_per_turn"] / slow, "us"},
			"allocs_per_turn":   {float64(m1.Mallocs-m0.Mallocs) / total, "count"},
			"alloc_kb_per_turn": {float64(m1.TotalAlloc-m0.TotalAlloc) / total / 1024, "KB"},
			"heap_live_mb":      {float64(m2.HeapAlloc) / (1 << 20), "MB"},
		},
		raw:       raw,
		speed:     slow,
		attempted: rec.attempted,
		spiked:    rec.spiked,
		failed:    rec.failed,
		failure:   rec.failure,
		passes:    done,
		askMs:     ask,
		fbMs:      fb,
		passSec:   passSec,
	}
}

// twinPasses is how many passes (each its own block) the CPU cost is taken
// over when an instance names a twin to measure it on.
const twinPasses = 10

// twinCPU measures the CPU cost per turn on twin, a pass a block; failed
// turns are counted into rec like any others.
func twinCPU(twin instance, rec *recorder, ref *speedRef) []float64 {
	turns := float64(twin.script().turns())
	var sub recorder
	blocks := make([]float64, 0, twinPasses)
	for k := 0; k < twinPasses; k++ {
		if ref != nil {
			ref.sample()
		}
		c0 := cpuSeconds()
		twin.pass(&sub)
		blocks = append(blocks, (cpuSeconds()-c0)*1e6/turns)
	}
	rec.attempted += sub.attempted
	rec.failed += sub.failed
	if rec.failure == "" {
		rec.failure = sub.failure
	}
	return blocks
}

// endToEndNames lists the end-to-end metrics in report order.
var endToEndNames = []string{
	"setup_s", "turns_per_s", "ask_p50_ms", "ask_p99_ms", "feedback_p50_ms", "feedback_p99_ms",
	"cpu_us_per_turn", "allocs_per_turn", "alloc_kb_per_turn", "heap_live_mb",
}
