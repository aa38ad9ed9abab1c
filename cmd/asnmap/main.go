// Command asnmap resolves IPv4 addresses against the synthetic IP→ASN
// registry — the simulation's equivalent of the Team Cymru mapping service
// the paper used to attribute captured peer addresses to ISPs.
//
// Usage:
//
//	asnmap 58.40.1.2 129.174.10.20 ...
//	asnmap -table             # dump the whole prefix registry
//	asnmap -wire 58.40.1.2    # resolve over the simulated wire service
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"pplivesim/internal/asnmap"
	"pplivesim/internal/isp"
	"pplivesim/internal/simnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "asnmap:", err)
		os.Exit(1)
	}
}

// run is the whole command. Every address is parsed before anything is
// printed.
func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("asnmap", flag.ContinueOnError)
	flags.SetOutput(stderr)
	table := flags.Bool("table", false, "dump the registered prefixes")
	wireMode := flags.Bool("wire", false, "resolve through the wire service over a simulated network")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	registry := asnmap.SyntheticInternet()
	if *table {
		fmt.Fprintf(stdout, "%-20s %-8s %-6s %s\n", "PREFIX", "ASN", "ISP", "AS NAME")
		for _, rec := range registry.Records() {
			fmt.Fprintf(stdout, "%-20s %-8d %-6s %s\n", rec.Prefix, rec.ASN, rec.ISP, rec.Name)
		}
		return nil
	}
	if flags.NArg() == 0 {
		return fmt.Errorf("no addresses given (try -table)")
	}

	addrs := make([]netip.Addr, 0, flags.NArg())
	for _, arg := range flags.Args() {
		a, err := netip.ParseAddr(arg)
		if err != nil {
			return fmt.Errorf("parse %q: %w", arg, err)
		}
		addrs = append(addrs, a)
	}

	if !*wireMode {
		for _, a := range addrs {
			if rec, ok := registry.Lookup(a); ok {
				fmt.Fprintf(stdout, "%-16s AS%-6d %-8s %s\n", a, rec.ASN, rec.ISP, rec.Name)
			} else {
				fmt.Fprintf(stdout, "%-16s (no origin AS registered)\n", a)
			}
		}
		return nil
	}

	// Wire mode: stand up the service and a caching client on a simulated
	// network and resolve through them.
	w := simnet.NewWorld(1)
	w.CodecCheck = true
	srvEnv, err := w.Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20})
	if err != nil {
		return err
	}
	srvEnv.SetHandler(asnmap.NewService(srvEnv, registry))
	cliEnv, err := w.Spawn(simnet.HostSpec{ISP: isp.CNC, UploadBps: 1 << 20})
	if err != nil {
		return err
	}
	cli := asnmap.NewClient(cliEnv, srvEnv.Addr())
	cliEnv.SetHandler(cli)

	for _, a := range addrs {
		cli.Resolve(a, func(rec asnmap.Record, found bool) {
			if found {
				fmt.Fprintf(stdout, "%-16s AS%-6d %-8s %s (resolved in %v virtual)\n",
					a, rec.ASN, rec.ISP, rec.Name, w.Engine.Now())
			} else {
				fmt.Fprintf(stdout, "%-16s (no origin AS registered)\n", a)
			}
		})
	}
	return w.Engine.Run(time.Minute)
}
