// Command livebench is the repository's end-to-end benchmark. It deploys
// the real nodes in one process — HSS and S-GW RPC servers, one MLB and
// two MMP agents with the daemons' default settings — and drives them
// from an eNB-side generator over loopback TCP, in a closed loop: a
// fixed number of procedures in flight, each starting the next when
// the previous one completes.
//
// Usage:
//
//	livebench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 a separately timed run reports the
// per-layer ones. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workload is one named traffic mix.
type workload struct {
	name string
	// population is the standing set of devices attached (and released
	// to Idle) during set-up.
	population int
	kind       procKind
	observed   bool
	// loaded is the closed loop's procedure count in the loaded phase.
	loaded int
}

var workloads = []workload{
	{name: "attach-detach", population: 2000, kind: procAttachDetach, loaded: inFlight},
	{name: "idle-active", population: 20000, kind: procServiceRelease, loaded: inFlight},
	{name: "tau", population: 10000, kind: procTAU, loaded: tauInFlight},
	{name: "tau-observed", population: 10000, kind: procTAU, observed: true, loaded: tauInFlight},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// inFlight is the closed loop's procedure count while set-up
	// attaches the standing population, and in the loaded phase of
	// attach-detach and idle-active. Those two are paced by the agents'
	// single S1 workers, which block on S6a and S11 calls: more in
	// flight only queues longer. (At 16 the tau stack used between one
	// and two CPUs from run to run, its throughput set by wake-up
	// timing.)
	inFlight = 64
	// tauInFlight is the loaded phase's count on tau and tau-observed.
	// At 64 the CPUs still idled between bursts, and CPU per TAU carried
	// the cost of waking them, which depends on the host: with a
	// competing busy loop in the VM it fell by a quarter (61.8 to
	// 46.2 us on tau-observed), and at 40% steal it rose by a fifth. At
	// 256 the agents' queues never drain, reads and writes batch as far
	// as they will, and the same busy loop moved it by 6 to 7%.
	tauInFlight = 256
	// setupRepeats is how many times an untraced run deploys and
	// attaches; setup_s is the median, and the last deployment serves
	// the run.
	setupRepeats = 3
	// serialShare is the share of a run spent in the serial phase.
	serialShare = 0.3
	// freshPerSecond sizes the pool of fresh IMSIs provisioned for
	// attach-detach: about twice the rate the stack sustains, so drawing
	// beyond it (which provisions on the spot) stays rare.
	freshPerSecond = 8000
)

// runConfig is one benchmark run.
type runConfig struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	// popDiv divides the standing population (the smoke test shrinks
	// it); 0 or 1 keeps it.
	popDiv int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems lists failed output checks (printed, not part of the
	// JSON line).
	problems []string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: attach-detach, idle-active, tau or tau-observed")
		seed    = flag.Int64("seed", 1, "workload seed: IMSI order, cell choice and emulator PRNG")
		seconds = flag.Int("seconds", 10, "measured seconds (serial plus loaded phase)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		rate    = flag.Float64("rate", 0, "open loop: offer this many procedures per second for the run instead of the closed loop, and print latency from each procedure's due time (reference figures, not a benchmark metric)")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "livebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "livebench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if *rate > 0 {
		if err := runOpen(cfg, *rate); err != nil {
			fmt.Fprintf(os.Stderr, "livebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg runConfig) (*result, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	var setups, steals []float64
	var b *bench
	for i := 0; i < setupRepeats; i++ {
		nb, d, err := setUp(cfg, stackConfig{observed: cfg.w.observed})
		if err != nil {
			return nil, err
		}
		setups, steals = append(setups, d.Seconds()), append(steals, nb.setupSteal)
		if i < setupRepeats-1 {
			nb.tearDown()
			continue
		}
		b = nb
	}
	defer b.tearDown()

	lat, err := b.serialPhase(time.Duration(float64(cfg.seconds)*serialShare), nil)
	if err != nil {
		return nil, err
	}
	ld, err := b.loadedPhase(cfg.seconds-time.Duration(float64(cfg.seconds)*serialShare), nil)
	if err != nil {
		return nil, err
	}
	res := b.finishRun(true)
	p50, p99 := medianP50(lat), quantile(lat, 0.99)
	fmt.Printf("%s seed=%d: serial p50=%.1fus p99=%.1fus (n=%d); loaded %d procs in %.2fs wall, %.1f%% stolen; unstolen set-ups %.3v s, %.3v stolen\n",
		cfg.w.name, cfg.seed, us(p50), us(p99), len(lat), ld.procs, ld.wall.Seconds(), 100*ld.steal, setups, steals)
	res.Metrics = map[string]metric{
		"setup_s":              {median(setups), "s"},
		"throughput_pps":       {ld.rate, "proc/s"},
		"lat_p50_us":           {us(p50), "us"},
		"cpu_us_per_proc":      {ld.cpuPerProc, "us"},
		"allocs_per_proc":      {float64(ld.mallocs) / float64(ld.procs), "count"},
		"alloc_bytes_per_proc": {float64(ld.allocBytes) / float64(ld.procs), "B"},
		"live_heap_mb":         {res.liveHeapMB, "MB"},
	}
	return &res.result, nil
}

// runOpen deploys once and runs the workload as an open loop at rate.
func runOpen(cfg runConfig, rate float64) error {
	b, _, err := setUp(cfg, stackConfig{observed: cfg.w.observed})
	if err != nil {
		return err
	}
	defer b.tearDown()
	lat, late, err := b.openPhase(rate, cfg.seconds)
	if err != nil {
		return err
	}
	res := b.finishRun(false)
	for _, p := range res.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	fmt.Printf("%s seed=%d open loop %.0f proc/s for %v: p50=%.1fus p99=%.1fus (n=%d), failed %d, generator late by up to %.2fms\n",
		cfg.w.name, cfg.seed, rate, cfg.seconds, us(quantile(lat, 0.5)), us(quantile(lat, 0.99)), len(lat), res.Failed,
		float64(late.Microseconds())/1e3)
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// latChunks is how many consecutive chunks the serial latencies are
// split into for medianP50.
const latChunks = 5

// medianP50 is the median of the p50s of latChunks consecutive chunks
// of the serial phase: like the p50 itself when the host is quiet, and
// unmoved by a burst of outside load that lands in one chunk.
func medianP50(lat []time.Duration) time.Duration {
	if len(lat) < latChunks {
		return quantile(lat, 0.5)
	}
	var p50s []float64
	for i := 0; i < latChunks; i++ {
		chunk := lat[i*len(lat)/latChunks : (i+1)*len(lat)/latChunks]
		p50s = append(p50s, float64(quantile(chunk, 0.5)))
	}
	return time.Duration(median(p50s))
}

// quartile is the q-th quartile (1 or 3) of xs, interpolated as
// Python's statistics.quantiles(xs, n=4) does.
func quartile(xs []float64, q int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	j := max(1, min(q*(n+1)/4, n-1))
	delta := float64(q*(n+1) - 4*j)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
