// Package fault is the zero-dependency, deterministic fault-injection
// layer behind the resilience hardening of the serve → loop → storage
// pipeline. Production code marks the places where the outside world
// can hurt it — a journal append, a batch flush, a labeling round —
// with a named injection site:
//
//	if err := fault.Hit("loop.journal.append"); err != nil {
//	    return err // behaves exactly like a real write error
//	}
//
// and stays a no-op (one atomic load, no allocation) until faults are
// armed, either programmatically (tests call Set/Reset) or through the
// FLOWGEN_FAULTS environment variable (chaos smoke jobs). Three fault
// kinds cover the failure classes the chaos suite drives:
//
//	error  Hit returns an error wrapping ErrInjected
//	panic  Hit panics (the caller's recover path is under test)
//	sleep  Hit blocks for the rule's delay, then returns nil
//
// The spec grammar is one rule per site, semicolon-separated:
//
//	site=kind[,p=0.5][,n=3][,after=10][,d=50ms]
//
//	p      trigger probability per call (default 1; seeded, so runs
//	       with the same seed and call order replay identically)
//	n      stop after this many triggers (default unlimited)
//	after  arm only after this many calls at the site
//	d      sleep duration (kind sleep; default 10ms)
//
// e.g. FLOWGEN_FAULTS='loop.journal.append=error,n=4;serve.http.predict=sleep,d=20ms'.
// A trailing ".*" in the site matches every site under the prefix.
// Per-site trigger counts are exported (Count/Counts) so tests assert
// the fault actually fired rather than trusting the spec.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected error wraps; resilience
// code must treat it like any transient failure (never special-case
// it), tests unwrap it to tell injected failures from real ones.
var ErrInjected = errors.New("injected fault")

// Kind is the fault class a rule injects.
type Kind int

const (
	// KindError makes Hit return an error wrapping ErrInjected.
	KindError Kind = iota
	// KindPanic makes Hit panic.
	KindPanic
	// KindSleep makes Hit block for the rule's delay.
	KindSleep
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindSleep:
		return "sleep"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "error":
		return KindError, nil
	case "panic":
		return KindPanic, nil
	case "sleep":
		return KindSleep, nil
	default:
		return 0, fmt.Errorf("fault: unknown kind %q (error, panic or sleep)", s)
	}
}

// Rule is one armed injection: at Site, inject Kind with probability P
// per call, at most N times, skipping the first After calls.
type Rule struct {
	Site  string
	Kind  Kind
	P     float64       // trigger probability, (0,1]; 0 means 1
	N     int64         // max triggers; 0 means unlimited
	After int64         // calls at the site skipped before arming
	Delay time.Duration // KindSleep block time; 0 means 10ms
}

// armedRule is a Rule plus its runtime state. The RNG is seeded per
// rule from the injector seed and the site name, so a fixed seed and a
// fixed call order at the site replay the same trigger sequence
// regardless of what other sites do.
type armedRule struct {
	Rule
	calls    atomic.Int64
	triggers atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// injector is one compiled fault plan. The active plan hangs off a
// package-level atomic pointer: nil means "no faults", which keeps the
// disabled Hit path to a single atomic load.
type injector struct {
	exact  map[string]*armedRule
	prefix []*armedRule // rules whose site ends in ".*", longest first
}

var active atomic.Pointer[injector]

var envOnce sync.Once

// InitFromEnv arms the injector from FLOWGEN_FAULTS (seeded by
// FLOWGEN_FAULT_SEED, default 1). It runs at most once per process; an
// empty or unset variable leaves injection disabled. cmd binaries call
// this at startup so chaos jobs can fault a stock binary.
func InitFromEnv() error {
	var err error
	envOnce.Do(func() {
		spec := os.Getenv("FLOWGEN_FAULTS")
		if spec == "" {
			return
		}
		seed := int64(1)
		if s := os.Getenv("FLOWGEN_FAULT_SEED"); s != "" {
			if v, perr := strconv.ParseInt(s, 10, 64); perr == nil {
				seed = v
			} else {
				err = fmt.Errorf("fault: FLOWGEN_FAULT_SEED %q: %w", s, perr)
				return
			}
		}
		if serr := Set(spec, seed); serr != nil {
			err = fmt.Errorf("FLOWGEN_FAULTS: %w", serr)
		}
	})
	return err
}

// Set replaces the active fault plan with the parsed spec (see the
// package comment for the grammar). An empty spec disables injection.
func Set(spec string, seed int64) error {
	rules, err := Parse(spec)
	if err != nil {
		return err
	}
	SetRules(seed, rules...)
	return nil
}

// SetRules replaces the active fault plan with the given rules.
// No rules disables injection entirely.
func SetRules(seed int64, rules ...Rule) {
	if len(rules) == 0 {
		active.Store(nil)
		return
	}
	inj := &injector{exact: map[string]*armedRule{}}
	for _, r := range rules {
		a := &armedRule{Rule: r}
		if a.P <= 0 || a.P > 1 {
			a.P = 1
		}
		if a.Delay <= 0 {
			a.Delay = 10 * time.Millisecond
		}
		// Each rule's RNG is seeded from the plan seed and the site
		// name so trigger sequences are independent across sites and
		// reproducible per site.
		var h int64
		for _, c := range r.Site {
			h = h*131 + int64(c)
		}
		a.rng = rand.New(rand.NewSource(seed ^ h))
		if s, ok := strings.CutSuffix(r.Site, ".*"); ok {
			a.Rule.Site = s
			inj.prefix = append(inj.prefix, a)
		} else {
			inj.exact[r.Site] = a
		}
	}
	sort.Slice(inj.prefix, func(i, j int) bool {
		return len(inj.prefix[i].Site) > len(inj.prefix[j].Site)
	})
	active.Store(inj)
}

// Reset disables all injection (tests defer this after Set).
func Reset() { active.Store(nil) }

// Enabled reports whether any fault plan is armed.
func Enabled() bool { return active.Load() != nil }

// Parse compiles a spec string into rules without arming them.
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rest, ok := strings.Cut(part, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return nil, fmt.Errorf("fault: rule %q: want site=kind[,param...]", part)
		}
		fields := strings.Split(rest, ",")
		kind, err := parseKind(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("fault: rule %q: %w", part, err)
		}
		r := Rule{Site: site, Kind: kind}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("fault: rule %q: parameter %q: want key=value", part, f)
			}
			switch k {
			case "p":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil || p <= 0 || p > 1 {
					return nil, fmt.Errorf("fault: rule %q: p=%q: want a probability in (0,1]", part, v)
				}
				r.P = p
			case "n":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("fault: rule %q: n=%q: want a positive count", part, v)
				}
				r.N = n
			case "after":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("fault: rule %q: after=%q: want a non-negative count", part, v)
				}
				r.After = n
			case "d":
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("fault: rule %q: d=%q: want a positive duration like 50ms", part, v)
				}
				r.Delay = d
			default:
				return nil, fmt.Errorf("fault: rule %q: unknown parameter %q (p, n, after or d)", part, k)
			}
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// Hit is the injection point: production code calls it where a named
// failure can be injected and treats a non-nil return as a real error
// from the operation the site guards. With no plan armed it is a
// single atomic load. An armed sleep rule blocks, then returns nil; a
// panic rule panics with a "fault: injected panic at <site>" value.
func Hit(site string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	r := inj.exact[site]
	if r == nil {
		for _, p := range inj.prefix {
			if strings.HasPrefix(site, p.Site) {
				r = p
				break
			}
		}
		if r == nil {
			return nil
		}
	}
	if r.calls.Add(1) <= r.After {
		return nil
	}
	if r.P < 1 {
		r.mu.Lock()
		miss := r.rng.Float64() >= r.P
		r.mu.Unlock()
		if miss {
			return nil
		}
	}
	if r.N > 0 {
		// Reserve a trigger slot; give it back on overshoot so Count
		// never exceeds N even under concurrent hits.
		if r.triggers.Add(1) > r.N {
			r.triggers.Add(-1)
			return nil
		}
	} else {
		r.triggers.Add(1)
	}
	switch r.Kind {
	case KindSleep:
		time.Sleep(r.Delay)
		return nil
	case KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s", site))
	default:
		return fmt.Errorf("fault: %s: %w", site, ErrInjected)
	}
}

// Count returns how many times the rule covering site has triggered
// (0 when no plan is armed or the site has no rule).
func Count(site string) int64 {
	inj := active.Load()
	if inj == nil {
		return 0
	}
	if r, ok := inj.exact[site]; ok {
		return r.triggers.Load()
	}
	for _, p := range inj.prefix {
		if strings.HasPrefix(site, p.Site) {
			return p.triggers.Load()
		}
	}
	return 0
}

// Counts returns the trigger count of every armed rule, keyed by the
// rule's site as written in the spec.
func Counts() map[string]int64 {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	out := make(map[string]int64, len(inj.exact)+len(inj.prefix))
	for site, r := range inj.exact {
		out[site] = r.triggers.Load()
	}
	for _, r := range inj.prefix {
		out[r.Site+".*"] = r.triggers.Load()
	}
	return out
}
