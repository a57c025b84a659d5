// Command sweep measures convergence rounds over a population-size grid and
// prints an aligned table (or CSV) plus the growth-law fit — the generic
// workhorse behind the Figure 1 reproductions.
//
// Sweeps are batches: the flags build a service.BatchRequest — a template
// spec plus an "n" axis, with adversarial sweeps deriving their
// n-dependent almost-stable slack per cell — and the cells run through one
// path, client.Batch: on a local service executor (client.Local) by
// default, on a consensusd daemon with -server. Either way -json emits
// exactly the machine-readable records the service API returns (one NDJSON
// RunRecord per repetition), so any sweep row can be re-submitted over
// HTTP verbatim.
//
// Examples:
//
//	sweep -ns 1e3,1e4,1e5,1e6 -reps 25
//	sweep -ns 1e3,1e4,1e5 -rule median -adversary balancer -fit logn
//	sweep -ns 1e4 -m 16 -init uniform -csv
//	sweep -ns 1e4,1e5 -reps 10 -server http://localhost:8645
//	sweep -ns 1e4 -reps 5 -json | consensusctl submit -spec -
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/adversary"
	"repro/consensus"
	"repro/internal/experiment"
	"repro/rules"
	"repro/service"
	"repro/service/client"
)

func main() {
	nsFlag := flag.String("ns", "1e3,1e4,1e5", "comma-separated population sizes")
	m := flag.Int("m", 2, "number of initial values (init twovalue ignores)")
	initKind := flag.String("init", "twovalue", "initial state: distinct, uniform, twovalue, blocks")
	ruleName := flag.String("rule", "median", "rule: median, majority, minimum, maximum, mean, voter")
	advName := flag.String("adversary", "none", "adversary: none, balancer, noise, splitter, hider")
	reps := flag.Int("reps", 10, "repetitions per grid point")
	maxRounds := flag.Int("rounds", 100000, "round cap")
	fit := flag.String("fit", "logn", "growth-law fit: logn, loglogn, linear, none")
	seed := flag.Uint64("seed", 1, "base seed")
	workers := flag.Int("workers", 2, "local executor worker pool size")
	server := flag.String("server", "", "run cells on a consensusd daemon instead of locally (base URL)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	jsonOut := flag.Bool("json", false, "emit NDJSON service run records instead of a table (overrides -csv, suppresses -fit)")
	flag.Parse()

	ns, err := parseNs(*nsFlag)
	if err != nil {
		fatal(err)
	}
	// Validate the rule and adversary names up front, before the sweep.
	if _, err := parseRule(*ruleName); err != nil {
		fatal(err)
	}
	if _, err := parseAdversary(*advName); err != nil {
		fatal(err)
	}

	req, err := batchRequest(ns, *m, *initKind, *ruleName, *advName, *maxRounds, *seed, *reps)
	if err != nil {
		fatal(err)
	}
	records, err := run(*server, *workers, req)
	if err != nil {
		fatal(err)
	}
	cells, err := experiment.Cells(records)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, rec := range records {
			if err := enc.Encode(service.RunRecord{Spec: rec.Spec, SpecHash: rec.SpecHash, Result: *rec.Result}); err != nil {
				fatal(err)
			}
		}
		return
	}
	tab := experiment.CellsTable(
		fmt.Sprintf("rounds to consensus: rule=%s init=%s adversary=%s", *ruleName, *initKind, *advName),
		[]string{"n"}, cells)
	if *csv {
		tab.CSV(os.Stdout)
	} else {
		tab.Render(os.Stdout)
	}
	if *fit != "none" && len(cells) >= 2 {
		var law experiment.GrowthLaw
		switch *fit {
		case "logn":
			law = experiment.LawLogN
		case "loglogn":
			law = experiment.LawLogLogN
		case "linear":
			law = experiment.LawLinear
		default:
			fatal(fmt.Errorf("unknown fit %q", *fit))
		}
		_, desc := experiment.DescribeFit(cells, law)
		fmt.Println("fit:", desc)
	}
}

// batchRequest assembles the sweep as a batch: a template plus an "n"
// axis — the form POST /v1/batches expands server-side. Adversarial sweeps
// pin the almost-stable slack to ~3·budget(n); that n-dependent field is a
// server-side derive rule now (almost_slack = ⌊3·√n⌋ per cell), so they
// ride the same grid path instead of enumerating explicit specs.
func batchRequest(ns []float64, m int, initKind, ruleName, advName string, maxRounds int, seed uint64, reps int) (service.BatchRequest, error) {
	tmpl, err := buildSpec(m, initKind, ruleName, advName, maxRounds, seed)
	if err != nil {
		return service.BatchRequest{}, err
	}
	req := service.BatchRequest{
		Template: tmpl,
		Axes:     []service.Axis{{Param: "n", Values: ns}},
		Reps:     reps,
	}
	if advName != "none" {
		req.Derive = []service.DeriveRule{
			{Param: "almost_slack", From: "n", Func: "sqrt", Factor: 3},
		}
	}
	return req, nil
}

// run streams the batch's cell records from the daemon at server or, with
// server empty, from a local service executor with the given worker pool.
func run(server string, workers int, req service.BatchRequest) ([]service.BatchCellRecord, error) {
	c, stop := client.New(server), func() {}
	if server == "" {
		var err error
		// Sweeps need results, not round streams: keep one record per run.
		if c, stop, err = client.Local(service.Options{Workers: workers, MaxRecords: 1}); err != nil {
			return nil, err
		}
	}
	defer stop()
	var records []service.BatchCellRecord
	err := c.Batch(context.Background(), req, func(rec service.BatchCellRecord) error {
		records = append(records, rec)
		return nil
	})
	return records, err
}

// buildSpec assembles the batch template (the "n" axis patches the
// population per cell). The CLI keeps its historical short names; they
// resolve to registry names here.
func buildSpec(m int, initKind, ruleName, advName string, maxRounds int, seed uint64) (service.Spec, error) {
	init, err := initSpec(initKind, 0, m, seed)
	if err != nil {
		return service.Spec{}, err
	}
	payload := &service.MedianSpec{
		Init: init,
		Rule: service.RuleSpec{Name: ruleName},
	}
	if advName != "none" {
		payload.Adversary, err = adversarySpec(advName)
		if err != nil {
			return service.Spec{}, err
		}
	}
	return service.Spec{
		Kind:      service.KindMedian,
		Seed:      seed,
		MaxRounds: maxRounds,
		Payload:   payload,
	}, nil
}

// adversarySpec is the single source for the CLI's adversary description:
// both the up-front validation (parseAdversary) and the executed spec
// (buildSpec) derive from it, so they cannot drift apart.
func adversarySpec(name string) (*service.AdversarySpec, error) {
	regName, ok := advRegistryNames[name]
	if !ok {
		return nil, fmt.Errorf("unknown adversary %q", name)
	}
	return &service.AdversarySpec{
		Name:   regName,
		Budget: adversary.BudgetSpec{Kind: "sqrt", Factor: 1},
	}, nil
}

func parseNs(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad population size %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -ns")
	}
	return out, nil
}

// sweepRules is the subset of registered rules the CLI exposes.
var sweepRules = map[string]bool{
	"median": true, "majority": true, "minimum": true,
	"maximum": true, "mean": true, "voter": true,
}

func parseRule(name string) (consensus.Rule, error) {
	if !sweepRules[name] {
		return nil, fmt.Errorf("unknown rule %q", name)
	}
	return rules.New(name, nil)
}

// advRegistryNames maps the CLI's short adversary names to registry names.
var advRegistryNames = map[string]string{
	"balancer": "balancer",
	"noise":    "random-noise",
	"splitter": "median-splitter",
	"hider":    "hider",
}

func parseAdversary(name string) (consensus.Adversary, error) {
	if name == "none" {
		return nil, nil
	}
	spec, err := adversarySpec(name)
	if err != nil {
		return nil, err
	}
	return adversary.New(spec.Name, spec.Budget, spec.Params)
}

// initSpec maps the CLI's init names onto registry init specs ("blocks"
// historically means even blocks). n == 0 leaves the population for the
// batch "n" axis to patch, so m is passed through unclamped (cell
// normalization clamps it against the real n).
func initSpec(kind string, n, m int, seed uint64) (consensus.InitSpec, error) {
	if n > 0 && (m <= 0 || m > n) {
		m = n
	}
	switch kind {
	case "distinct":
		return consensus.InitSpec{Kind: "distinct", N: n}, nil
	case "uniform":
		return consensus.InitSpec{Kind: "uniform", N: n, M: m, Seed: seed}, nil
	case "twovalue":
		return consensus.InitSpec{Kind: "twovalue", N: n}, nil
	case "blocks":
		return consensus.InitSpec{Kind: "evenblocks", N: n, M: m}, nil
	}
	return consensus.InitSpec{}, fmt.Errorf("unknown init %q", kind)
}

// parseInit materializes a CLI init description — kept as the testable
// seam for the CLI→registry mapping.
func parseInit(kind string, n, m int, seed uint64) ([]consensus.Value, error) {
	s, err := initSpec(kind, n, m, seed)
	if err != nil {
		return nil, err
	}
	return consensus.BuildInit(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(2)
}
