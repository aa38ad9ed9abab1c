package peer

import (
	"fmt"
	"strings"
)

// Fidelity selects how much per-peer state the simulator keeps for the
// background population. Probes always run at full fidelity — the paper's
// measurements are probe-side — so the axis only governs the organic swarm
// around them.
type Fidelity int

const (
	// FidelityMixed (the default) is the behaviour every pinned golden digest
	// was recorded under: background viewers are full protocol Clients with
	// batched data transfer (BackgroundConfig), probes are full-fidelity
	// Clients.
	FidelityMixed Fidelity = iota
	// FidelityFull runs background viewers at probe fidelity (BatchCount 1);
	// used by the fidelity ablation.
	FidelityFull
	// FidelityFlow replaces background Clients with struct-of-arrays
	// FlowSwarm members: flat per-member rows, no per-peer goroutine-shaped
	// state, per-ISP traffic accounted at flow level. Probes remain full
	// Clients and the swarm answers their protocol traffic exactly, so the
	// probe-side methodology is unchanged. This is the million-peer mode.
	FidelityFlow
)

// fidelityNames is the canonical spelling of each level, in order.
var fidelityNames = [...]string{"mixed", "full", "flow"}

// String returns the flag spelling of the fidelity level.
func (f Fidelity) String() string {
	if f < 0 || int(f) >= len(fidelityNames) {
		return fmt.Sprintf("Fidelity(%d)", int(f))
	}
	return fidelityNames[f]
}

// Valid reports whether f is a defined fidelity level.
func (f Fidelity) Valid() bool { return f >= 0 && int(f) < len(fidelityNames) }

// ParseFidelity resolves a flag value to a fidelity level.
func ParseFidelity(s string) (Fidelity, error) {
	for i, name := range fidelityNames {
		if s == name {
			return Fidelity(i), nil
		}
	}
	return 0, fmt.Errorf("peer: unknown fidelity %q (have %s)", s, strings.Join(FidelityNames(), ", "))
}

// FidelityNames lists the accepted flag values, in definition order.
func FidelityNames() []string {
	out := make([]string, len(fidelityNames))
	copy(out, fidelityNames[:])
	return out
}
