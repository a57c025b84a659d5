// Command consensusctl is the consensusd client: it submits run specs of
// any registered kind, runs batch sweeps, fetches results, follows live
// round streams, discovers the server's engines and reads service metrics.
//
//	consensusctl submit -n 100000 -rule median -wait
//	consensusctl submit -kind gossip -n 5000 -selector drop-value:1 -stream
//	consensusctl submit -kind multidim -init random -n 2000 -d 3 -wait
//	consensusctl submit -kind robust -n 5000 -loss 0.1 -crashes 50 -wait
//	consensusctl submit -kind exact -n 60 -start 20 -wait
//	consensusctl submit -spec run.json -stream
//	consensusctl submit -local -n 100000 -init uniform -m 16 -stream
//	consensusctl batch -axis n=1e3,1e4 -axis seed=1,2,3
//	consensusctl batch -local -axis n=1e3,1e4 -reps 5
//	consensusctl batch -local -axis n=1e3,1e4,1e5 -reps 10 -format table -fit logn
//	consensusctl batch -local -adversary median-splitter -axis n=1e3,1e4 \
//	    -derive 'almost_slack=3*sqrt(n)' -format csv -fit logn
//	consensusctl batch -axis n=1e3,1e4 -zip crashes=10,100 -reps 5
//	consensusctl batch -spec batch.json
//	consensusctl engines
//	consensusctl get r-1
//	consensusctl watch r-1        # one run's round records
//	consensusctl watch            # the service-wide live event stream
//	consensusctl watch -replay 50 # ... preceded by recent history
//	consensusctl top -interval 2s # live polling metrics view
//	consensusctl cancel r-1
//	consensusctl metrics
//
// The server is selected with -server (default http://localhost:8645) on
// every subcommand; submit and batch take -local instead, which runs them
// on an in-process service (client.Local) with no daemon at all.
// $CONSENSUS_TOKEN, when set, is sent as a bearer token
// (required by servers started with -auth-token). "submit -spec -" reads
// one or more JSON specs from stdin (a single spec object, a batch cell
// record, or NDJSON of either), so batch output pipes straight back into
// the service. "batch" streams one BatchCellRecord per expanded cell as
// NDJSON, or with -format table|csv prints the rounds per grid point
// (mean, stderr, median, extremes, reps), keyed by the axis params, and
// with -fit the growth-law fit of the mean rounds against the first axis —
// the n-sweeps behind the paper's Figure 1.
//
// The per-kind flag surface is validated against engine descriptors: a
// flag that maps to a parameter the selected kind does not declare, or a
// value outside the parameter's enum/bounds, is rejected client-side with
// a descriptor-sourced error before anything reaches the server. The
// descriptors come from the configured server's GET /v1/engines document
// when it answers (validation then reflects what that server registered),
// and from the local registry otherwise.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/adversary"
	"repro/engine"
	"repro/internal/buildinfo"
	"repro/internal/experiment"
	"repro/multidim"
	"repro/obs"
	"repro/rules"
	"repro/service"
	"repro/service/client"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "version", "-version", "--version":
		fmt.Println("consensusctl", buildinfo.String())
		return
	case "submit":
		err = runSubmit(args)
	case "batch":
		err = runBatch(args)
	case "engines":
		err = runEngines(args)
	case "get":
		err = runGet(args)
	case "watch":
		err = runWatch(args)
	case "cancel":
		err = runCancel(args)
	case "top":
		err = runTop(args)
	case "metrics":
		err = runMetrics(args)
	case "health":
		err = runHealth(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "consensusctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: consensusctl <command> [flags]

commands:
  submit    submit a run spec (flags or -spec file)
  batch     submit a batch grid; stream per-cell records, or print the
            rounds per grid point (-format table|csv, -fit logn)
  engines   list the server's registered engines and their parameters
  get       print a run's state
  watch     with a run id: stream its per-round records, then print the
            result; without: tail the service's live event stream (NDJSON)
  top       live metrics view, refreshed every -interval
  cancel    request cancellation of a run
  metrics   print service counters
  health    probe the server
  version   print version and exit`)
}

// serverFlag registers the shared -server flag on a flag set.
func serverFlag(fs *flag.FlagSet) *string {
	return fs.String("server", "http://localhost:8645", "consensusd base URL")
}

// newClient builds the API client, attaching $CONSENSUS_TOKEN as the
// bearer token when set.
func newClient(server string) *client.Client {
	c := client.New(server)
	c.Token = os.Getenv("CONSENSUS_TOKEN")
	return c
}

// localFlag registers -local on the commands that run specs. A local
// service lives only as long as the command, so submit -local always
// waits for its runs.
func localFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("local", false, "run on an in-process service instead of -server (implies -wait)")
}

// connect returns the client a command runs on — the daemon at server, or
// with local an in-process service (client.Local) built from opts — and
// the function that releases it.
func connect(server string, local bool, opts service.Options) (*client.Client, func(), error) {
	if local {
		return client.Local(opts)
	}
	return newClient(server), func() {}, nil
}

// specFlags is the shared flag surface that builds one Spec of any kind —
// the submit command's template and the batch command's grid template.
type specFlags struct {
	fs        *flag.FlagSet
	kind      *string
	n         *int
	m         *int
	d         *int
	initKind  *string
	ruleName  *string
	k         *int
	advName   *string
	budgetK   *string
	budgetF   *float64
	noiseT    *int
	loss      *float64
	crashes   *int
	mode      *string
	capFactor *float64
	selector  *string
	start     *int
	seed      *uint64
	rounds    *int
	slack     *int
	window    *int
	timing    *string
	engine    *string
}

func addSpecFlags(fs *flag.FlagSet) *specFlags {
	return &specFlags{
		fs:        fs,
		kind:      fs.String("kind", "median", "spec kind (see consensusctl engines)"),
		n:         fs.Int("n", 100000, "population size"),
		m:         fs.Int("m", 2, "number of initial values (multidim: coordinate range)"),
		d:         fs.Int("d", 1, "point dimension (kind multidim)"),
		initKind:  fs.String("init", "", "initial state kind (scalar kinds: consensus.InitKinds, default twovalue; multidim: multidim.InitKinds, default random)"),
		ruleName:  fs.String("rule", "median", "rule registry name (kinds median, gossip)"),
		k:         fs.Int("k", 0, "k parameter for the kmedian rule (0 = unset)"),
		advName:   fs.String("adversary", "", "adversary registry name ('' = none; multidim: see multidim.AdversaryNames)"),
		budgetK:   fs.String("budget", "sqrt", "adversary budget kind: fixed, sqrt, sqrtlog"),
		budgetF:   fs.Float64("budget-factor", 1, "adversary budget factor"),
		noiseT:    fs.Int("t", 0, "multidim adversary per-round budget (0 = default)"),
		loss:      fs.Float64("loss", 0, "per-sample loss probability (kind robust)"),
		crashes:   fs.Int("crashes", 0, "crashed processes (kind robust)"),
		mode:      fs.String("mode", "", "crash fault mode: responsive, silent (kind robust)"),
		capFactor: fs.Float64("cap-factor", 0, "per-round request capacity scale (kind gossip; 0 = default, negative = unlimited)"),
		selector:  fs.String("selector", "", "drop selector: fair, drop-value:<victim> (kind gossip)"),
		start:     fs.Int("start", 0, "initial left-bin count (kind exact; 0 = n/2)"),
		seed:      fs.Uint64("seed", 0, "run seed (0 = derived from the spec hash)"),
		rounds:    fs.Int("rounds", 0, "round cap (0 = engine default)"),
		slack:     fs.Int("slack", 0, "almost-stable slack (0 = off)"),
		window:    fs.Int("window", 0, "stability window (0 = default)"),
		timing:    fs.String("timing", "", "adversary timing: before-round, after-choices (kind median)"),
		engine:    fs.String("engine", "", "simulation engine: auto (count unless the adversary lacks a count view, then ball), ball, count, twobin (count on <= 2 values, kept for existing specs) (kind median); auto, process, count (kind multidim)"),
	}
}

// flagParams maps each kind-specific flag to the descriptor parameter it
// sets. A flag is legal for a kind exactly when the kind's descriptor
// declares that parameter — so a newly registered engine's flag surface
// follows from its Descriptor(), with no table to edit here. Shared flags
// (kind, n, m, init, seed, rounds) are absent: they are legal everywhere.
var flagParams = map[string]string{
	"rule":          "rule.name",
	"k":             "rule.params.k",
	"adversary":     "adversary.name",
	"budget":        "adversary.budget.kind",
	"budget-factor": "adversary.budget.factor",
	"t":             "adversary.params.t",
	"slack":         "almost_slack",
	"window":        "window",
	"timing":        "timing",
	"engine":        "engine",
	"d":             "init.d",
	"loss":          "loss_prob",
	"crashes":       "crashes",
	"mode":          "mode",
	"cap-factor":    "cap_factor",
	"selector":      "selector",
	"start":         "start",
}

// sharedFlagParams maps the flags that are legal for every kind to the
// descriptor parameter carrying their enum/bounds, so their *values* are
// still validated (applicability never is — every kind declares them).
var sharedFlagParams = map[string]string{
	"n":    "init.n",
	"m":    "init.m",
	"init": "init.kind",
}

// paramsOf indexes a descriptor's parameter names.
func paramsOf(d engine.Descriptor) map[string]bool {
	out := make(map[string]bool, len(d.Params))
	for _, p := range d.Params {
		out[p.Name] = true
	}
	return out
}

// checkKindFlags rejects explicitly-set flags whose parameter the kind's
// descriptor does not declare — mirroring the server-side strict decode —
// instead of silently running without them.
func (f *specFlags) checkKindFlags(d engine.Descriptor) error {
	params := paramsOf(d)
	var bad []string
	f.fs.Visit(func(fl *flag.Flag) {
		param, owned := flagParams[fl.Name]
		if owned && !params[param] {
			bad = append(bad, "-"+fl.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("flags %s do not apply to kind %s", strings.Join(bad, ", "), d.Kind)
	}
	return nil
}

// checkFlagValues validates explicitly-set flag values against the
// descriptor's enums and bounds, so a bad value surfaces as a
// descriptor-sourced client error instead of a server 400 (or, worse, a
// round-trip to a server that is down).
func (f *specFlags) checkFlagValues(d engine.Descriptor) error {
	byName := make(map[string]engine.Param, len(d.Params))
	for _, p := range d.Params {
		byName[p.Name] = p
	}
	var errs []string
	f.fs.Visit(func(fl *flag.Flag) {
		param, owned := flagParams[fl.Name]
		if !owned {
			param, owned = sharedFlagParams[fl.Name]
		}
		if !owned {
			return
		}
		raw := fl.Value.String()
		if fl.Name == "adversary" && (raw == "" || raw == "none") {
			return // "none" is the flag surface's spelling of "no adversary"
		}
		p, known := byName[param]
		if !known {
			// Kinds without the scalar init block declare shared flags as
			// bare parameters (exact: "n", "init") rather than the dotted
			// "init.n"/"init.kind" — validate against those when present.
			if p, known = byName[fl.Name]; !known {
				return // checkKindFlags already rejected kind-foreign flags
			}
		}
		if err := checkParamValue(p, raw); err != nil {
			errs = append(errs, fmt.Sprintf("-%s: %v", fl.Name, err))
		}
	})
	if len(errs) > 0 {
		return fmt.Errorf("per the %s engine descriptor: %s", d.Kind, strings.Join(errs, "; "))
	}
	return nil
}

// checkParamValue enforces one descriptor parameter's enum and bounds on
// a raw flag value.
func checkParamValue(p engine.Param, raw string) error {
	switch p.Type {
	case "string":
		if raw == "" || len(p.Enum) == 0 {
			return nil
		}
		for _, ok := range p.Enum {
			if raw == ok {
				return nil
			}
		}
		return fmt.Errorf("value %q for parameter %s not in enum %v", raw, p.Name, p.Enum)
	case "int", "uint", "float":
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return fmt.Errorf("parameter %s needs a %s value, got %q", p.Name, p.Type, raw)
		}
		if p.Min != nil && v < *p.Min {
			return fmt.Errorf("value %v for parameter %s below its minimum %v", v, p.Name, *p.Min)
		}
		if p.Max != nil && v > *p.Max {
			return fmt.Errorf("value %v for parameter %s above its maximum %v", v, p.Name, *p.Max)
		}
	}
	return nil
}

// descriptorFor resolves the kind's descriptor for client-side
// validation: from the server's /v1/engines document when a server is
// configured and answers — so validation reflects what *that* server
// registered, not what this binary was built with — from the local
// registry otherwise.
func descriptorFor(c *client.Client, kind string) (engine.Descriptor, error) {
	if c != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if ds, err := c.Engines(ctx); err == nil {
			for _, d := range ds {
				if d.Kind == kind {
					return d, nil
				}
			}
			return engine.Descriptor{}, fmt.Errorf("kind %s is not registered on the server (see consensusctl engines)", kind)
		}
	}
	eng, err := engine.Lookup(kind)
	if err != nil {
		return engine.Descriptor{}, err
	}
	return eng.Descriptor(), nil
}

// spec assembles the Spec the flags describe, validated (applicability
// and values) against the kind's descriptor — c's server document when it
// answers, the local registry otherwise; nil c always validates locally.
// Kinds that ignore a field never embed it — an irrelevant m (or seed)
// would change the canonical hash and defeat the result cache.
func (f *specFlags) spec(c *client.Client) (service.Spec, error) {
	kind := *f.kind
	d, err := descriptorFor(c, kind)
	if err != nil {
		return service.Spec{}, err
	}
	if err := f.checkKindFlags(d); err != nil {
		return service.Spec{}, err
	}
	if err := f.checkFlagValues(d); err != nil {
		return service.Spec{}, err
	}
	spec := service.Spec{Kind: d.Kind, Seed: *f.seed, MaxRounds: *f.rounds}
	switch d.Kind {
	case service.KindMultidim:
		spec.Payload = f.multidimPayload()
	case service.KindRobust:
		spec.Payload = f.robustPayload()
	case service.KindGossip:
		spec.Payload = f.gossipPayload()
	case service.KindMedian:
		spec.Payload = f.medianPayload()
	case service.KindExact:
		spec.Payload = f.exactPayload()
	default:
		return service.Spec{}, fmt.Errorf("kind %s has no flag surface; submit it with -spec", d.Kind)
	}
	return spec, nil
}

// scalarInit builds the shared scalar init spec of the median, gossip and
// robust kinds.
func (f *specFlags) scalarInit() service.InitSpec {
	kind := *f.initKind
	if kind == "" {
		kind = "twovalue"
	}
	init := service.InitSpec{Kind: kind, N: *f.n}
	switch kind {
	case "uniform":
		init.M = *f.m
		init.Seed = *f.seed
	case "evenblocks":
		init.M = *f.m
	}
	return init
}

// scalarAdversary builds the adversary block shared by the median and
// gossip kinds (nil = none).
func (f *specFlags) scalarAdversary() *service.AdversarySpec {
	if *f.advName == "" || *f.advName == "none" {
		return nil
	}
	return &service.AdversarySpec{
		Name:   *f.advName,
		Budget: adversary.BudgetSpec{Kind: *f.budgetK, Factor: *f.budgetF},
	}
}

func (f *specFlags) ruleRef() service.RuleSpec {
	rule := service.RuleSpec{Name: *f.ruleName}
	if *f.k > 0 {
		rule.Params = rules.Params{"k": float64(*f.k)}
	}
	return rule
}

func (f *specFlags) medianPayload() *service.MedianSpec {
	return &service.MedianSpec{
		Init:        f.scalarInit(),
		Rule:        f.ruleRef(),
		Adversary:   f.scalarAdversary(),
		AlmostSlack: *f.slack,
		Window:      *f.window,
		Timing:      *f.timing,
		Engine:      *f.engine,
	}
}

func (f *specFlags) gossipPayload() *service.GossipSpec {
	return &service.GossipSpec{
		Init:        f.scalarInit(),
		Rule:        f.ruleRef(),
		Adversary:   f.scalarAdversary(),
		CapFactor:   *f.capFactor,
		Selector:    *f.selector,
		AlmostSlack: *f.slack,
		Window:      *f.window,
	}
}

func (f *specFlags) multidimPayload() *service.MultidimSpec {
	kind := *f.initKind
	if kind == "" {
		kind = "random"
	}
	init := multidim.InitSpec{Kind: kind, N: *f.n, D: *f.d}
	if kind == "random" {
		init.M = *f.m
		init.Seed = *f.seed
	}
	payload := &service.MultidimSpec{Init: init, Engine: *f.engine}
	if *f.advName != "" && *f.advName != "none" {
		adv := &service.MultidimAdversarySpec{Name: *f.advName}
		if *f.noiseT > 0 {
			adv.Params = multidim.Params{"t": float64(*f.noiseT)}
		}
		payload.Adversary = adv
	}
	return payload
}

// exactPayload builds the analytic kind's payload. -init here selects the
// exact kind's start distribution ("point"/"uniform"), not a scalar init.
func (f *specFlags) exactPayload() *service.ExactSpec {
	return &service.ExactSpec{N: *f.n, Init: *f.initKind, Start: *f.start}
}

func (f *specFlags) robustPayload() *service.RobustSpec {
	return &service.RobustSpec{
		Init:     f.scalarInit(),
		LossProb: *f.loss,
		Crashes:  *f.crashes,
		Mode:     *f.mode,
	}
}

func runSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := serverFlag(fs)
	local := localFlag(fs)
	specPath := fs.String("spec", "", "read the spec from a JSON file ('-' = stdin, NDJSON accepted) instead of flags")
	sf := addSpecFlags(fs)
	wait := fs.Bool("wait", false, "block until the run finishes and print the result")
	stream := fs.Bool("stream", false, "stream round records while waiting (implies -wait)")
	fs.Parse(args)

	c, stop, err := connect(*server, *local, service.Options{})
	if err != nil {
		return err
	}
	defer stop()
	ctx := context.Background()

	var specs []service.Spec
	if *specPath != "" {
		specs, err = readSpecs(*specPath)
		if err != nil {
			return err
		}
	} else {
		spec, err := sf.spec(c)
		if err != nil {
			return err
		}
		specs = []service.Spec{spec}
	}

	for _, spec := range specs {
		view, err := c.Submit(ctx, spec)
		if err != nil {
			return err
		}
		if !*wait && !*stream && !*local {
			printJSON(view)
			continue
		}
		if *stream {
			if err := streamRun(ctx, c, view.ID); err != nil {
				return err
			}
		}
		final, err := c.Wait(ctx, view.ID, 100*time.Millisecond)
		if err != nil {
			return err
		}
		printJSON(final)
	}
	return nil
}

// axisFlags accumulates repeated -axis (or -zip) param=v1,v2,... flags.
type axisFlags []service.Axis

func (a *axisFlags) String() string {
	parts := make([]string, len(*a))
	for i, ax := range *a {
		parts[i] = ax.Param
	}
	return strings.Join(parts, ",")
}

func (a *axisFlags) Set(s string) error {
	param, list, ok := strings.Cut(s, "=")
	if !ok || param == "" || list == "" {
		return fmt.Errorf("axis must look like param=v1,v2,..., got %q", s)
	}
	var values []float64
	for _, part := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad axis value %q in %q", part, s)
		}
		values = append(values, v)
	}
	*a = append(*a, service.Axis{Param: param, Values: values})
	return nil
}

// checkAxes validates axis params against the template's kind before the
// request leaves the client, using the same descriptor data the server
// enforces.
func checkAxes(tmpl service.Spec, groups ...[]service.Axis) error {
	for _, axes := range groups {
		for _, ax := range axes {
			if !tmpl.AxisOK(ax.Param) {
				return fmt.Errorf("kind %s has no batch axis %q (see consensusctl engines)",
					cmp.Or(tmpl.Kind, engine.DefaultKind()), ax.Param)
			}
		}
	}
	return nil
}

// deriveFlags accumulates repeated -derive param=factor*func(from) flags
// (the "factor*" prefix is optional) into the request's derive rules.
type deriveFlags []service.DeriveRule

func (d *deriveFlags) String() string {
	parts := make([]string, len(*d))
	for i, r := range *d {
		parts[i] = r.Param
	}
	return strings.Join(parts, ",")
}

func (d *deriveFlags) Set(s string) error {
	param, expr, ok := strings.Cut(strings.ReplaceAll(s, " ", ""), "=")
	call, closed := strings.CutSuffix(expr, ")")
	rule := service.DeriveRule{Param: param}
	if factor, rest, found := strings.Cut(call, "*"); found {
		f, err := strconv.ParseFloat(factor, 64)
		ok = ok && err == nil
		rule.Factor, call = f, rest
	}
	var open bool
	rule.Func, rule.From, open = strings.Cut(call, "(")
	if !ok || !closed || !open || param == "" || rule.Func == "" || rule.From == "" {
		return fmt.Errorf("derive must look like param=factor*func(from), got %q", s)
	}
	*d = append(*d, rule)
	return nil
}

// fitLaws maps the -fit names other than "none" to growth laws.
var fitLaws = map[string]experiment.GrowthLaw{
	"logn":    experiment.LawLogN,
	"loglogn": experiment.LawLogLogN,
	"linear":  experiment.LawLinear,
}

// checkOutput validates -format and -fit before anything runs.
func checkOutput(format, fit string) error {
	switch format {
	case "ndjson", "table", "csv":
	default:
		return fmt.Errorf("unknown -format %q (known: ndjson, table, csv)", format)
	}
	if _, ok := fitLaws[fit]; !ok && fit != "none" {
		return fmt.Errorf("unknown -fit %q (known: none, logn, loglogn, linear)", fit)
	}
	if fit != "none" && format == "ndjson" {
		return fmt.Errorf("-fit %s needs -format table or csv", fit)
	}
	return nil
}

func runBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	server := serverFlag(fs)
	local := localFlag(fs)
	specPath := fs.String("spec", "", "read a BatchRequest from a JSON file ('-' = stdin) instead of flags")
	reps := fs.Int("reps", 1, "repetitions per grid cell")
	format := fs.String("format", "ndjson", "output: ndjson (one record per cell), or table or csv (rounds per grid point)")
	fit := fs.String("fit", "none", "growth-law fit of the mean rounds against the first axis: none, logn, loglogn, linear (table and csv only)")
	var axes, zips axisFlags
	var derive deriveFlags
	fs.Var(&axes, "axis", "sweep axis param=v1,v2,... (repeatable; cartesian product)")
	fs.Var(&zips, "zip", "zipped axis param=v1,v2,... (repeatable; all advance together, equal lengths)")
	fs.Var(&derive, "derive", "per-cell param=factor*func(from) computed from an axis value; func: linear, sqrt, sqrtlog, log2 (repeatable; e.g. almost_slack=3*sqrt(n))")
	sf := addSpecFlags(fs)
	fs.Parse(args)
	if err := checkOutput(*format, *fit); err != nil {
		return err
	}

	// Batch cells report results, not round streams: a local service
	// keeps one round record per run.
	c, stop, err := connect(*server, *local, service.Options{MaxRecords: 1})
	if err != nil {
		return err
	}
	defer stop()
	var req service.BatchRequest
	if *specPath != "" {
		if err := readJSONFile(*specPath, &req); err != nil {
			return err
		}
	} else {
		if len(axes) == 0 && len(zips) == 0 {
			return fmt.Errorf("batch needs at least one -axis or -zip (or -spec)")
		}
		tmpl, err := sf.spec(c)
		if err != nil {
			return err
		}
		if err := checkAxes(tmpl, axes, zips); err != nil {
			return err
		}
		req = service.BatchRequest{Template: tmpl, Axes: axes, Zip: zips, Derive: derive, Reps: *reps}
	}
	if *fit != "none" && len(req.Axes)+len(req.Zip) == 0 {
		return fmt.Errorf("-fit needs a grid axis to fit against")
	}
	ctx := context.Background()
	if *format == "ndjson" {
		enc := json.NewEncoder(os.Stdout)
		return c.Batch(ctx, req, func(rec service.BatchCellRecord) error {
			return enc.Encode(rec)
		})
	}
	var records []service.BatchCellRecord
	if err := c.Batch(ctx, req, func(rec service.BatchCellRecord) error {
		records = append(records, rec)
		return nil
	}); err != nil {
		return err
	}
	return printCells(os.Stdout, req, records, *format, *fit)
}

// printCells prints a finished batch as a table (or CSV) of the rounds
// per grid point, keyed by the axis params, followed by the growth-law
// fit of the mean rounds against the first axis unless fit is "none".
func printCells(w io.Writer, req service.BatchRequest, records []service.BatchCellRecord, format, fit string) error {
	cells, err := experiment.Cells(records)
	if err != nil {
		return err
	}
	var keys []string
	for _, ax := range req.Axes {
		keys = append(keys, ax.Param)
	}
	for _, ax := range req.Zip {
		keys = append(keys, ax.Param)
	}
	tab := experiment.CellsTable("rounds per grid point", keys, cells)
	if format == "csv" {
		tab.CSV(w)
	} else {
		tab.Render(w)
	}
	if law, ok := fitLaws[fit]; ok && len(cells) >= 2 {
		_, desc := experiment.DescribeFit(cells, law)
		fmt.Fprintln(w, "fit:", desc)
	}
	return nil
}

// runEngines prints the server's engine discovery document — the
// registered spec kinds with their parameter schemas and batch axes.
func runEngines(args []string) error {
	fs := flag.NewFlagSet("engines", flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	descriptors, err := newClient(*server).Engines(context.Background())
	if err != nil {
		return err
	}
	printJSON(descriptors)
	return nil
}

// readJSONFile strictly decodes one JSON document from a file or stdin.
func readJSONFile(path string, v any) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON in %s: %w", path, err)
	}
	return nil
}

// readSpecs parses a file of specs: a single Spec object or batch cell
// record (pretty-printed JSON included), or a stream of them (NDJSON or
// simply concatenated objects).
func readSpecs(path string) ([]service.Spec, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var specs []service.Spec
	dec := json.NewDecoder(r)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("bad spec JSON in %s: %w", path, err)
		}
		spec, err := decodeSpec(raw)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no specs in %s", path)
	}
	return specs, nil
}

// decodeSpec accepts either a bare Spec or a record that wraps one in its
// "spec" field — a line of batch output, whose fields a {spec, spec_hash,
// result} run record also decodes into. Both are decoded strictly (the
// spec codec rejects unknown fields for the spec's kind), so a misspelled
// field must fail here, not be silently dropped, re-marshalled clean and
// accepted by the server.
func decodeSpec(raw []byte) (service.Spec, error) {
	var rec service.BatchCellRecord
	if err := strictUnmarshal(raw, &rec); err == nil && rec.SpecHash != "" && rec.Spec.Payload != nil {
		return rec.Spec, nil
	}
	var spec service.Spec
	if err := strictUnmarshal(raw, &spec); err != nil {
		return service.Spec{}, fmt.Errorf("bad spec: %w", err)
	}
	return spec, nil
}

func strictUnmarshal(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func runGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	id, err := oneArg(fs, "get")
	if err != nil {
		return err
	}
	view, err := newClient(*server).Get(context.Background(), id)
	if err != nil {
		return err
	}
	printJSON(view)
	return nil
}

func runWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	server := serverFlag(fs)
	replay := fs.Int("replay", 0, "events to replay from the server's ring buffer before following (event-stream form)")
	fs.Parse(args)
	c := newClient(*server)
	ctx := context.Background()
	if fs.NArg() == 0 {
		// No run id: tail the service-wide event stream until the server
		// goes away or we are interrupted.
		enc := json.NewEncoder(os.Stdout)
		return c.Events(ctx, *replay, func(ev obs.Event) error {
			return enc.Encode(ev)
		})
	}
	id, err := oneArg(fs, "watch")
	if err != nil {
		return err
	}
	if err := streamRun(ctx, c, id); err != nil {
		return err
	}
	final, err := c.Wait(ctx, id, 100*time.Millisecond)
	if err != nil {
		return err
	}
	printJSON(final)
	return nil
}

func streamRun(ctx context.Context, c *client.Client, id string) error {
	enc := json.NewEncoder(os.Stdout)
	return c.Stream(ctx, id, func(rec service.RoundRecord) error {
		return enc.Encode(rec)
	})
}

func runCancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	id, err := oneArg(fs, "cancel")
	if err != nil {
		return err
	}
	view, err := newClient(*server).Cancel(context.Background(), id)
	if err != nil {
		return err
	}
	printJSON(view)
	return nil
}

// runTop polls /v1/metrics and renders a compact live view — enough to
// see pool saturation, cache behavior and event-stream health at a glance
// without a Prometheus stack.
func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	server := serverFlag(fs)
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	iterations := fs.Int("n", 0, "refreshes before exiting (0 = until interrupted)")
	fs.Parse(args)
	c := newClient(*server)
	ctx := context.Background()
	clear := false
	if st, err := os.Stdout.Stat(); err == nil {
		clear = st.Mode()&os.ModeCharDevice != 0
	}
	for i := 0; ; i++ {
		m, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		if clear {
			fmt.Print("\033[H\033[2J")
		}
		printTop(m)
		if *iterations > 0 && i+1 >= *iterations {
			return nil
		}
		time.Sleep(*interval)
	}
}

func printTop(m service.MetricsSnapshot) {
	util := 0.0
	if m.Workers > 0 {
		util = 100 * float64(m.WorkersBusy) / float64(m.Workers)
	}
	fmt.Printf("consensusd  up %s  workers %d/%d (%.0f%%)  queue %d\n",
		(time.Duration(m.UptimeSeconds) * time.Second).String(), m.WorkersBusy, m.Workers, util, m.QueueDepth)
	fmt.Printf("jobs    submitted %-8d done %-8d failed %-6d cancelled %-6d coalesced %d\n",
		m.JobsSubmitted, m.JobsCompleted, m.JobsFailed, m.JobsCancelled, m.JobsCoalesced)
	fmt.Printf("cache   hits %-8d misses %-8d rate-limited %d\n",
		m.CacheHits, m.CacheMisses, m.RateLimited)
	fmt.Printf("batch   run %-8d cells %-8d cached %-6d coalesced %d\n",
		m.BatchesRun, m.BatchCellsExpanded, m.BatchCellsCached, m.BatchCellsCoalesced)
	fmt.Printf("store   loaded %-8d appended %-8d bytes %-10d errors %d\n",
		m.StoreRecordsLoaded, m.StoreRecordsAppended, m.StoreBytes, m.StoreAppendErrors)
	fmt.Printf("events  published %-8d dropped %-8d subscribers %d\n",
		m.EventsPublished, m.EventsDropped, m.EventSubscribers)
}

func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	m, err := newClient(*server).Metrics(context.Background())
	if err != nil {
		return err
	}
	printJSON(m)
	return nil
}

func runHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	if err := newClient(*server).Health(context.Background()); err != nil {
		return err
	}
	fmt.Println("ok")
	return nil
}

func oneArg(fs *flag.FlagSet, cmd string) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("%s needs exactly one run id", cmd)
	}
	return fs.Arg(0), nil
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
