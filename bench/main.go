// Command bench is the consensusd serve benchmark. It starts the real
// service behind an in-process HTTP server on loopback TCP, drives it from
// a closed loop of two clients through service/client, checks every
// output and prints every metric by name and unit. The last line of
// standard output is the run's result as one JSON object.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload hit -seed 1
//	bash bench/run.sh -workload all -seed 1 -trace 1
//
// -seconds (default 15) is the measure window; BENCHMARK.json's command
// is run with --seconds set to its run_seconds.
//
// See bench/README.md for the workloads, metrics and layers.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// endToEnd are the metrics an untraced run's result line carries: what a
// user of the service sees. The workload's rate and median latency are
// given relative to the host probe (see child.go), and setup_s is scaled
// to a reference probe rate, as the raw values move with the host's speed
// more than their bounds allow; the table prints the raw values too, with
// latency_p99_ms and error_rate (0 on every correct run; the result line's
// failed/attempted carry it).
var endToEnd = []string{"ops_vs_probe", "latency_p50_vs_probe", "setup_s", "peak_rss_mb"}

// perLayerJSON are the metrics a traced run's result line carries: the
// per-layer metrics every workload measures. The printed table has more,
// some of which only some workloads exercise.
var perLayerJSON = []string{
	"ops_per_s",
	"latency_p50_ms",
	"client.self_ms.p50",
	"service.http.self_ms.p50",
	"service.http.bytes_per_op",
	"engine.decode_us.p50",
	"engine.normalize_us.p50",
	"engine.validate_us.p50",
	"engine.hash_us.p50",
	"service.job_ms.p50",
	"service.batch_expand_ms.p50",
	"consensus.execute_ms.p50",
	"consensus.rounds_per_s",
	"store.open_s",
	"store.load_s",
	"runtime.alloc_bytes_per_op",
	"runtime.gc_cycles_per_kop",
	"runtime.gc_cpu_frac",
}

// scratchDir holds everything a run writes, under the directory it runs in.
const scratchDir = ".bench_build"

func main() {
	if code, ok := runChild(os.Args[1:]); ok {
		os.Exit(code)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", ")+", or all (each in its own process)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 15, "measure window in seconds (a traced run splits it into an untraced and a traced half)")
	trace := flag.Int("trace", 0, "0: untraced, report the end-to-end metrics; 1: traced, report the per-layer metrics and write spans under "+scratchDir+"/")
	flag.Parse()

	if *name == "all" {
		os.Exit(runAll(names, *seed, *seconds, *trace))
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		w:        w,
		seed:     *seed,
		warmup:   3 * time.Second,
		measure:  time.Duration(*seconds * float64(time.Second)),
		prepRuns: 2048,
		scratch:  scratchDir,
	}
	want := endToEnd
	if *trace == 1 {
		cfg.spans = filepath.Join(scratchDir, fmt.Sprintf("spans-%s-%d.ndjson.gz", w.name, *seed))
		want = perLayerJSON
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := rep.resultLine(want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct() {
		os.Exit(1)
	}
}

// runAll runs every workload in a fresh process of this binary, so memory
// and GC state never carry over, and reports whether all passed.
func runAll(names []string, seed uint64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}
