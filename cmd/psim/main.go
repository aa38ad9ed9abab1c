// Command psim runs a single P2P live-streaming scenario and prints the
// probe-side analysis: the locality panels, response-time groups,
// contribution fits, and rank–RTT correlation for each probe.
//
// Usage:
//
//	psim [-channel popular|unpopular|multi] [-scale 0.25] [-watch 20m] [-shards N]
//	     [-probes tele,cnc,mason] [-seed 7] [-no-referral] [-no-latency-bias]
//	     [-no-preference] [-switch-fraction 0.35] [-median-dwell 4m]
//	     [-fault source-crash|tracker-outage|link-degrade|partition|burst-loss|kill-churn|combo]
//	     [-fidelity mixed|full|flow] [-selection random|quota:F|ashop:B]
//
// With -fidelity flow the background population runs as struct-of-arrays
// flow swarms — millions of peers in bounded memory — while probes keep
// full protocol fidelity. -fidelity full forces every background viewer to
// a full Client.
//
// With -fault a canned chaos schedule is injected into the watch window and
// each probe's report gains per-fault-window resilience metrics (continuity
// dip, time to recover, traffic shift).
//
// With -channel multi the popular and unpopular channels run concurrently,
// a fraction of viewers browses between them (-switch-fraction, -median-dwell),
// and every requested probe is placed twice: once pinned to each channel.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pplivesim"
	"pplivesim/internal/experiments"
	"pplivesim/internal/isp"
	"pplivesim/internal/simnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "psim:", err)
		os.Exit(1)
	}
}

// run is the whole command. Every flag is checked before the simulation is
// built.
func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("psim", flag.ContinueOnError)
	flags.SetOutput(stderr)
	channel := flags.String("channel", "popular", "popular, unpopular, or multi (both concurrently)")
	scale := flags.Float64("scale", 0.25, "population scale (1.0 = paper-size audience)")
	watch := flags.Duration("watch", 20*time.Minute, "probe watch duration")
	warmup := flags.Duration("warmup", 6*time.Minute, "swarm warm-up before probes join")
	probesFlag := flags.String("probes", "tele,mason", "comma-separated probe ISPs: tele, cnc, cer, other, mason")
	seed := flags.Int64("seed", 7, "random seed")
	noReferral := flags.Bool("no-referral", false, "ablate neighbor referral")
	noLatency := flags.Bool("no-latency-bias", false, "ablate latency-based selection")
	noPref := flags.Bool("no-preference", false, "ablate performance-weighted scheduling")
	shards := flags.Int("shards", simnet.DefaultShards, "event-loop workers (one per ISP domain by default). Up to 6, results are identical at any setting; above 6 (at most 256) it also selects the scaled partition of that many domains, a different trajectory that is again identical at any worker count")
	switchFrac := flags.Float64("switch-fraction", 0.35, "with -channel multi: share of viewers that browse channels")
	dwell := flags.Duration("median-dwell", 4*time.Minute, "with -channel multi: median dwell on a channel before switching")
	faultName := flags.String("fault", "", "inject a chaos preset: "+strings.Join(pplive.FaultPresetNames(), ", "))
	fidelityName := flags.String("fidelity", "mixed", "background population fidelity: "+strings.Join(pplive.FidelityNames(), ", "))
	selectionName := flags.String("selection", "random", "peer selection policy: "+strings.Join(pplive.SelectionNames(), ", "))
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *scale <= 0 {
		return fmt.Errorf("-scale %g: must be positive", *scale)
	}
	if *watch <= 0 {
		return fmt.Errorf("-watch %s: must be positive", *watch)
	}
	if *warmup <= 0 {
		return fmt.Errorf("-warmup %s: must be positive", *warmup)
	}
	if *shards < 1 || *shards > simnet.MaxShards {
		return fmt.Errorf("-shards %d: want 1..%d", *shards, simnet.MaxShards)
	}

	var sc pplive.Scenario
	multi := false
	switch *channel {
	case "popular":
		sc = pplive.PopularScenario(*seed, *scale)
	case "unpopular":
		sc = pplive.UnpopularScenario(*seed, *scale)
	case "multi":
		multi = true
		sc = pplive.MultiChannelScenario(*seed, *scale, *scale)
		sc.Switching.SwitcherFraction = *switchFrac
		sc.Switching.MedianDwell = *dwell
	default:
		return fmt.Errorf("unknown channel %q", *channel)
	}
	sc.Watch = *watch
	sc.WarmUp = *warmup
	sc.ArrivalWindow = *warmup / 2
	sc.Shards = *shards
	sc.Behaviour = pplive.Behaviour{
		DisableReferral:    *noReferral,
		DisableLatencyBias: *noLatency,
		DisablePreference:  *noPref,
	}
	fidelity, err := pplive.ParseFidelity(*fidelityName)
	if err != nil {
		return fmt.Errorf("-fidelity: %w", err)
	}
	sc.Fidelity = fidelity
	selSpec, err := pplive.ParseSelection(*selectionName)
	if err != nil {
		return fmt.Errorf("-selection: %w", err)
	}
	sc.Selection = selSpec

	for _, name := range strings.Split(*probesFlag, ",") {
		name = strings.TrimSpace(name)
		var category pplive.ISP
		switch name {
		case "tele":
			category = isp.TELE
		case "cnc":
			category = isp.CNC
		case "cer":
			category = isp.CER
		case "other":
			category = isp.OtherCN
		case "mason", "foreign":
			category = isp.Foreign
		case "":
			continue
		default:
			return fmt.Errorf("-probes: unknown probe %q", name)
		}
		if multi {
			// One instance of each probe per channel, pinned there for the run.
			for _, ch := range sc.Channels {
				sc.Probes = append(sc.Probes, pplive.ProbeSpec{
					Name:    fmt.Sprintf("%s-%s", name, ch.Spec.Name),
					ISP:     category,
					Channel: ch.Spec.Channel,
				})
			}
		} else {
			sc.Probes = append(sc.Probes, pplive.ProbeSpec{Name: name, ISP: category})
		}
	}
	if len(sc.Probes) == 0 {
		return fmt.Errorf("-probes: no probes specified")
	}
	if *faultName != "" {
		fs, err := pplive.FaultPreset(*faultName, sc.WarmUp, sc.Watch)
		if err != nil {
			return fmt.Errorf("-fault: %w", err)
		}
		sc.Faults = fs
	}

	viewers := 0
	if multi {
		for _, ch := range sc.Channels {
			viewers += ch.Viewers.Total()
		}
	} else {
		viewers = sc.Viewers.Total()
	}
	fmt.Fprintf(stdout, "scenario %s: %d viewers, watch %s (total virtual %s), seed %d\n",
		sc.Name, viewers, sc.Watch, sc.WarmUp+sc.Watch, sc.Seed)
	start := time.Now()
	res, err := pplive.RunScenario(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "completed: %d engine events, %d viewers spawned, wall %s\n\n",
		res.EventsProcessed, res.PeersSpawned, time.Since(start).Round(time.Millisecond))
	if multi {
		fmt.Fprintf(stdout, "channel switching: %d viewers switched at least once, %d switch events\n",
			res.Switchers, res.Switches)
		for _, ch := range res.Channels {
			fmt.Fprintf(stdout, "  channel %d (%s): %d initial viewers, source %v\n",
				ch.Spec.Channel, ch.Spec.Name, ch.Viewers.Total(), ch.Source)
		}
		fmt.Fprintln(stdout)
	}

	for i, p := range res.Probes {
		rep, err := pplive.AnalyzeProbe(res, i)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("=== probe %s (%s) ===", p.Name, p.ISP)
		fmt.Fprintln(stdout, experiments.ProbeSummary(title, rep))
		if sc.Faults != nil {
			summary, err := experiments.ResilienceSummary(res, p.Name)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "resilience:\n"+summary)
		}
	}
	return nil
}
