package campaign

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cpu"
	"repro/internal/hv"
	"repro/internal/inject"
	"repro/internal/mm"
	"repro/internal/pagetable"
)

// OutcomeClass buckets a randomized trial's observed behaviour.
type OutcomeClass uint8

// Trial outcome classes.
const (
	// ClassRejected: the interface refused the input (an error return).
	ClassRejected OutcomeClass = iota + 1
	// ClassAccepted: the interface accepted the input with no observable
	// state perturbation relevant to security.
	ClassAccepted
	// ClassStateInduced: a security-relevant erroneous state was left in
	// the system (audited, not assumed).
	ClassStateInduced
	// ClassHandledOops: the perturbation surfaced as a contained guest
	// kernel exception.
	ClassHandledOops
	// ClassCrash: the hypervisor died.
	ClassCrash
	// ClassHang: the hypervisor stopped making progress.
	ClassHang
)

// String names the class.
func (c OutcomeClass) String() string {
	switch c {
	case ClassRejected:
		return "rejected"
	case ClassAccepted:
		return "accepted"
	case ClassStateInduced:
		return "state-induced"
	case ClassHandledOops:
		return "handled-oops"
	case ClassCrash:
		return "crash"
	case ClassHang:
		return "hang"
	default:
		return fmt.Sprintf("OutcomeClass(%d)", uint8(c))
	}
}

// Distribution counts trial outcomes per class.
type Distribution map[OutcomeClass]int

// Total returns the number of trials recorded.
func (d Distribution) Total() int {
	n := 0
	for _, v := range d {
		n += v
	}
	return n
}

// ErroneousStates returns how many trials induced an erroneous state,
// including those whose state then surfaced as a crash, a hang or a
// handled guest oops. A handled oops still presupposes an induced
// state — the system *coped* with it, which is exactly the distinction
// the paper's Table III draws between erroneous state and security
// violation — so ClassHandledOops counts here. Only ClassRejected and
// ClassAccepted (no security-relevant perturbation) are excluded.
func (d Distribution) ErroneousStates() int {
	return d[ClassStateInduced] + d[ClassHandledOops] + d[ClassCrash] + d[ClassHang]
}

// RandomInjectionCampaign implements the randomized-input injection idea
// of Section IV-C ("one possibility is to randomize inputs to an
// injector, creating an approach that resembles fuzzing testing but in
// another level of interaction, in a post-attack phase"): each trial
// gets a fresh environment the way a campaign cell does (forked from
// the sealed snapshot, or booted under -no-snapshot), injects one
// randomized memory-corruption erroneous state through the injector —
// confined to targets the use-case intrusion models declare
// security-relevant (IDT descriptors and page-table entries) — then
// exercises the system and classifies the observed behaviour. A trial
// leaves its fork corrupted by design, so no fork returns to the pool.
func RandomInjectionCampaign(v hv.Version, trials int, seed int64) (Distribution, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("campaign: trials must be positive, got %d", trials)
	}
	rng := rand.New(rand.NewSource(seed))
	dist := make(Distribution)
	c := cell{version: v, mode: ModeInjection}
	for i := 0; i < trials; i++ {
		e, _, err := cellEnvironment(campaignPlan(), c, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		class, err := randomInjectionTrial(e, rng)
		if err != nil {
			return nil, fmt.Errorf("campaign: trial %d: %w", i, err)
		}
		dist[class]++
	}
	return dist, nil
}

func randomInjectionTrial(e *Environment, rng *rand.Rand) (OutcomeClass, error) {
	d := e.Attacker.Domain()
	switch rng.Intn(3) {
	case 0:
		// Corrupt a random IDT descriptor with a random value, then let
		// the guest fault so delivery exercises the table.
		vector := uint8(rng.Intn(32))
		dst := e.HV.IDTR().DescriptorAddr(vector)
		if err := e.Injector.WriteLinear64(dst, rng.Uint64()); err != nil {
			return 0, err
		}
		err := e.Attacker.TriggerPageFault()
		switch {
		case e.HV.Crashed():
			return ClassCrash, nil
		case err != nil && vector == cpu.VectorPageFault:
			return ClassHandledOops, nil
		default:
			// Descriptor corrupted but delivery path unaffected: a
			// latent erroneous state.
			return ClassStateInduced, nil
		}

	case 1:
		// Corrupt a random entry of a random page-table frame of the
		// attacker with a random (present) entry value.
		frames := make([]mm.MFN, 0, 8)
		for mfn := range d.PageTableFrames() {
			frames = append(frames, mfn)
		}
		// Map order varies run to run; the seeded pick needs a fixed one.
		slices.Sort(frames)
		if len(frames) == 0 {
			return ClassAccepted, nil
		}
		table := frames[rng.Intn(len(frames))]
		idx := rng.Intn(pagetable.EntriesPerTable)
		val := pagetable.Entry(rng.Uint64()).WithFlags(pagetable.FlagPresent)
		ptr, err := pagetable.EntryAddr(table, idx)
		if err != nil {
			return 0, err
		}
		if err := e.Injector.WritePTE(ptr, val); err != nil {
			return 0, err
		}
		// Exercise the address space: walk the whole physmap.
		var sawOops bool
		buf := make([]byte, 8)
		for pfn := mm.PFN(0); pfn < mm.PFN(d.Frames()); pfn += 7 {
			if err := e.Attacker.Peek(d.PhysmapVA(pfn), buf); err != nil {
				if e.HV.Crashed() {
					return ClassCrash, nil
				}
				sawOops = true
			}
		}
		if sawOops {
			return ClassHandledOops, nil
		}
		return ClassStateInduced, nil

	default:
		// Corrupt a random word of a random guest-owned frame — memory
		// corruption outside translation structures.
		target := d.Base() + mm.MFN(rng.Intn(d.Frames()))
		off := uint64(rng.Intn(mm.PageSize/8)) * 8
		if err := e.Injector.ArbitraryAccess(uint64(target.Addr())+off,
			[]byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}, inject.WritePhys); err != nil {
			return 0, err
		}
		if e.HV.Crashed() {
			return ClassCrash, nil
		}
		return ClassStateInduced, nil
	}
}

// HypercallFuzzCampaign is the related-work baseline (hypercall attack
// injection in the style of Milenkoski et al., discussed in Section II):
// each trial fires one randomized, malformed hypercall from the guest
// through the *legitimate* interface. On versions without reachable
// vulnerabilities the interface rejects essentially everything, which is
// exactly the coverage limitation intrusion injection exists to
// overcome — quantified by comparing the two campaigns' erroneous-state
// counts (see BenchmarkBaselineComparison and the fuzz example).
func HypercallFuzzCampaign(v hv.Version, trials int, seed int64) (Distribution, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("campaign: trials must be positive, got %d", trials)
	}
	rng := rand.New(rand.NewSource(seed))
	dist := make(Distribution)
	// A single environment: the baseline interacts only through
	// legitimate interfaces, so state accumulates as it would in a real
	// attack session.
	e, err := NewEnvironment(v, ModeExploit)
	if err != nil {
		return nil, err
	}
	d := e.Attacker.Domain()
	for i := 0; i < trials; i++ {
		err := randomHypercall(e, d, rng)
		switch {
		case e.HV.Crashed():
			dist[ClassCrash]++
		case err != nil:
			dist[ClassRejected]++
		default:
			dist[ClassAccepted]++
		}
	}
	// Audit: did the session leave a guest-writable mapping of any
	// page-table frame? That is the erroneous state this interface could
	// produce only through a vulnerability.
	if n := auditWritablePTMappings(e); n > 0 {
		dist[ClassStateInduced] += n
	}
	return dist, nil
}

func randomHypercall(e *Environment, d *hv.Domain, rng *rand.Rand) error {
	switch rng.Intn(5) {
	case 0:
		ptr := mm.PhysAddr(rng.Uint64() % e.HV.Memory().Bytes())
		val := pagetable.Entry(rng.Uint64())
		return d.Hypercall(hv.HypercallMMUUpdate, &hv.MMUUpdateArgs{
			Updates: []hv.MMUUpdate{{Ptr: ptr &^ 7, Val: val}},
		})
	case 1:
		return d.Hypercall(hv.HypercallMemoryOp, &hv.ExchangeArgs{
			In:       []mm.PFN{mm.PFN(rng.Intn(2 * d.Frames()))},
			OutStart: rng.Uint64(),
		})
	case 2:
		return d.Hypercall(hv.HypercallMMUExtOp, &hv.MMUExtArgs{
			Op:  hv.MMUExtOp(rng.Intn(8)),
			MFN: mm.MFN(rng.Intn(e.HV.Memory().NumFrames())),
		})
	case 3:
		return d.Hypercall(hv.HypercallGrantTableOp, &hv.GrantAccessArgs{
			Ref:   rng.Intn(2 * hv.GrantEntries),
			ToDom: mm.DomID(rng.Intn(5)),
			PFN:   mm.PFN(rng.Intn(2 * d.Frames())),
		})
	default:
		return d.Hypercall(hv.HypercallEventChannelOp, &hv.EventSendArgs{
			Port: rng.Intn(2 * hv.MaxEventChannels),
		})
	}
}

// auditWritablePTMappings counts page-table frames of the attacker that
// are guest-writable through its own address space — the
// Guest-Writable Page Table Entry erroneous state.
func auditWritablePTMappings(e *Environment) int {
	d := e.Attacker.Domain()
	n := 0
	for mfn := range d.PageTableFrames() {
		_, pfn, err := e.HV.Memory().M2P(mfn)
		if err != nil {
			continue
		}
		if _, err := e.HV.Walker().Translate(d.CR3(), d.PhysmapVA(pfn), pagetable.AccessWrite, true); err == nil {
			n++
		}
	}
	return n
}

// BaselineComparison runs both campaigns with the same budget and
// returns their distributions: the quantitative form of the paper's
// argument that driving erroneous states directly beats attacking
// through the interface when no vulnerability is reachable.
type BaselineComparison struct {
	Version   string
	Trials    int
	Injection Distribution
	Baseline  Distribution
}

// CompareWithBaseline runs the two campaigns on the same version with
// the same trial budget and seed.
func CompareWithBaseline(v hv.Version, trials int, seed int64) (*BaselineComparison, error) {
	inj, err := RandomInjectionCampaign(v, trials, seed)
	if err != nil {
		return nil, err
	}
	base, err := HypercallFuzzCampaign(v, trials, seed)
	if err != nil {
		return nil, err
	}
	return &BaselineComparison{
		Version:   v.Name,
		Trials:    trials,
		Injection: inj,
		Baseline:  base,
	}, nil
}
