package selection

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the selection strategies.
type Kind int

const (
	// KindUniform is the paper-faithful locality-unaware random sample.
	KindUniform Kind = iota
	// KindQuota caps the inter-ISP fraction of every reply.
	KindQuota
	// KindASHop weights candidates by AS-hop proximity to the requester.
	KindASHop
)

// Default knob values when a spec names a kind without a parameter.
const (
	// DefaultQuotaFrac mirrors the "Pushing BitTorrent Locality to the
	// Limit" operating point: at most 1 in 5 reply entries cross an ISP
	// boundary.
	DefaultQuotaFrac = 0.2
	// DefaultASHopBias makes a one-hop candidate half as likely as a
	// same-ISP one ((1+1)^-2 = 0.25 vs 1.0 relative weight per candidate
	// is quarter; bias 2 is the Fukushima et al. midpoint of the sweep).
	DefaultASHopBias = 2.0
)

// Spec is the serializable description of a selection policy — the form that
// travels in Scenario configs and command-line flags. The zero value selects
// the legacy uniform policy, so existing scenarios are untouched.
type Spec struct {
	Kind Kind
	// MaxInterFrac is Quota's cap on the inter-ISP reply fraction.
	MaxInterFrac float64
	// Bias is ASHop's exponent: candidate weight (1+hops)^-Bias.
	Bias float64
}

// ParseSpec parses a -selection flag value: "" or "random"; "quota" or
// "quota:F" with F in [0,1]; "ashop" or "ashop:B" with B finite and >= 0.
func ParseSpec(s string) (Spec, error) {
	name, arg, hasArg := strings.Cut(s, ":")
	switch name {
	case "", "random":
		if hasArg {
			return Spec{}, fmt.Errorf("selection: %q takes no parameter", s)
		}
		return Spec{}, nil
	case "quota":
		sp := Spec{Kind: KindQuota, MaxInterFrac: DefaultQuotaFrac}
		if hasArg {
			f, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("selection: bad quota fraction %q", arg)
			}
			sp.MaxInterFrac = f
		}
		if err := checkQuotaFrac(sp.MaxInterFrac); err != nil {
			return Spec{}, err
		}
		return sp, nil
	case "ashop":
		sp := Spec{Kind: KindASHop, Bias: DefaultASHopBias}
		if hasArg {
			b, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("selection: bad ashop bias %q", arg)
			}
			sp.Bias = b
		}
		if err := checkBias(sp.Bias); err != nil {
			return Spec{}, err
		}
		return sp, nil
	default:
		return Spec{}, fmt.Errorf("selection: unknown policy %q (want %s)", s, strings.Join(Names(), ", "))
	}
}

// String renders the spec in the form ParseSpec accepts.
func (sp Spec) String() string {
	switch sp.Kind {
	case KindQuota:
		return "quota:" + trimFloat(sp.MaxInterFrac)
	case KindASHop:
		return "ashop:" + trimFloat(sp.Bias)
	default:
		return "random"
	}
}

// Policy instantiates the spec against a resolver. Uniform needs no
// resolver; the biased kinds do.
func (sp Spec) Policy(res Resolver) (Policy, error) {
	switch sp.Kind {
	case KindUniform:
		return Uniform{}, nil
	case KindQuota:
		return NewQuota(res, sp.MaxInterFrac)
	case KindASHop:
		return NewASHop(res, sp.Bias)
	default:
		return nil, fmt.Errorf("selection: unknown kind %d", sp.Kind)
	}
}

// Validate checks the knobs without instantiating (for Scenario.Validate).
func (sp Spec) Validate() error {
	switch sp.Kind {
	case KindUniform:
		return nil
	case KindQuota:
		return checkQuotaFrac(sp.MaxInterFrac)
	case KindASHop:
		return checkBias(sp.Bias)
	default:
		return fmt.Errorf("selection: unknown kind %d", sp.Kind)
	}
}

// checkQuotaFrac is the one gate on a quota fraction, at parse, validation
// and construction alike: it must be finite and in [0,1].
func checkQuotaFrac(f float64) error {
	if !(f >= 0 && f <= 1) { // false for NaN too
		return fmt.Errorf("selection: quota fraction %g out of [0,1]", f)
	}
	return nil
}

// checkBias is the one gate on an AS-hop bias: it must be finite and >= 0.
func checkBias(b float64) error {
	if !(b >= 0) || math.IsInf(b, 1) {
		return fmt.Errorf("selection: ashop bias %g must be finite and >= 0", b)
	}
	return nil
}

// Names lists the accepted -selection forms for flag help text.
func Names() []string {
	return []string{"random", "quota[:maxInterFrac]", "ashop[:bias]"}
}
