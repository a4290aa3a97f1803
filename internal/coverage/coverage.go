// Package coverage turns the telemetry stream into a deterministic
// coverage signal: a compact counting map of hypervisor behaviour
// edges, keyed by a stable FNV-1a hash of a canonical edge name.
//
// An edge is a small, version-stable description of one observable
// hypervisor behaviour: a hypercall number paired with its exit
// outcome, a page-type get/put paired with the frame's region class, a
// validation reject (level × masked reason), a walk denial, an
// injector state-machine transition, or a grant/domctl op kind. Edge
// names deliberately contain no wall times, no sequence numbers and no
// raw machine addresses (hex and long digit runs are masked), so the
// same cell produces byte-identical coverage across worker counts,
// chaos seeds, and snapshot-fork vs fresh boot.
//
// The package sits below telemetry in the import DAG: telemetry and hv
// call into it, never the reverse. A nil *Map is a valid no-op sink —
// every hook method nil-checks its receiver — so disabled coverage
// costs one predicted branch per event and zero allocations.
package coverage

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Family groups edges by the instrumentation site that produced them.
type Family string

// The edge families, in canonical (alphabetical) order.
const (
	FamDomctl     Family = "domctl"
	FamGrant      Family = "grant"
	FamHypercall  Family = "hypercall"
	FamInjector   Family = "injector"
	FamPageType   Family = "pagetype"
	FamValidation Family = "validation"
	FamWalk       Family = "walk"
)

// FrameClassifier maps a machine frame number to a small, stable
// region class ("hv-text", "xen-heap", "general"). Page-type edges use
// the class instead of the raw mfn so the edge space stays compact and
// identical across layouts that only shift individual frames.
type FrameClassifier func(mfn uint64) string

// Edge is one observed behaviour edge with its hit count.
type Edge struct {
	Family Family `json:"family"`
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
}

type edge struct {
	family Family
	name   string
	count  uint64
}

// Map is a per-cell counting coverage map. It is not safe for
// concurrent use; like telemetry.Recorder it belongs to a single cell
// goroutine. The zero-size map is ready to use via NewMap.
type Map struct {
	frameClass FrameClassifier
	edges      map[uint64]*edge
}

// NewMap returns an empty coverage map.
func NewMap() *Map { return &Map{edges: make(map[uint64]*edge)} }

// SetFrameClassifier installs the region classifier used by page-type
// edges. Before one is installed frames classify as "general".
func (m *Map) SetFrameClassifier(fc FrameClassifier) {
	if m == nil {
		return
	}
	m.frameClass = fc
}

// FNV-1a 64-bit, unrolled here so hashing an edge identity allocates
// nothing on the hot path.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime
	return h
}

func fnvUint(h uint64, v uint64) uint64 {
	// Hash the decimal rendering without producing it: push digits
	// most-significant first via a fixed-size buffer.
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	for ; i < len(buf); i++ {
		h = fnvByte(h, buf[i])
	}
	return h
}

// bump increments the edge with the given identity hash, materialising
// its display name (from the ≤3 parts, ":"-joined) only on first
// sight. Hash collisions merge counts under the first-seen name; with
// a 64-bit space and a few hundred live edges the chance is
// negligible, and a collision is deterministic, so digests stay
// stable.
func (m *Map) bump(h uint64, fam Family, a, b, c string) {
	if e, ok := m.edges[h]; ok {
		e.count++
		return
	}
	name := a
	if b != "" {
		name = a + ":" + b
	}
	if c != "" {
		name += ":" + c
	}
	m.edges[h] = &edge{family: fam, name: name, count: 1}
}

// seed returns the hash state for a family, separating the family
// namespace from the edge parts.
func seed(fam Family) uint64 {
	h := fnvString(fnvOffset, string(fam))
	return fnvByte(h, '/')
}

// Hypercall records a (hypercall nr × exit outcome) edge.
func (m *Map) Hypercall(nr int, name string, errored bool) {
	if m == nil {
		return
	}
	outcome := "ok"
	if errored {
		outcome = "err"
	}
	h := fnvString(seed(FamHypercall), name)
	h = fnvByte(h, ':')
	h = fnvString(h, outcome)
	_ = nr // nr is implied by name; kept in the signature for call-site clarity
	m.bump(h, FamHypercall, name, outcome, "")
}

// PageType records a page-type transition edge: op is "get" or "put",
// typ the frame type name, and the frame classifies into a region
// class via the installed classifier.
func (m *Map) PageType(op string, mfn uint64, typ string) {
	if m == nil {
		return
	}
	class := "general"
	if m.frameClass != nil {
		class = m.frameClass(mfn)
	}
	h := fnvString(seed(FamPageType), op)
	h = fnvByte(h, ':')
	h = fnvString(h, typ)
	h = fnvByte(h, '@')
	h = fnvString(h, class)
	if e, ok := m.edges[h]; ok {
		e.count++
		return
	}
	m.edges[h] = &edge{family: FamPageType, name: op + ":" + typ + "@" + class, count: 1}
}

// ValidationReject records a (level × masked reason) edge.
func (m *Map) ValidationReject(level int, reason string) {
	if m == nil {
		return
	}
	masked := MaskReason(reason)
	h := fnvUint(seed(FamValidation), uint64(level))
	h = fnvByte(h, ':')
	h = fnvString(h, masked)
	m.bump(h, FamValidation, "L"+strconv.Itoa(level), masked, "")
}

// WalkDenied records a masked walk-denial reason edge.
func (m *Map) WalkDenied(reason string) {
	if m == nil {
		return
	}
	masked := MaskReason(reason)
	h := fnvString(seed(FamWalk), masked)
	m.bump(h, FamWalk, masked, "", "")
}

// InjectorOp records an injector operation kind edge.
func (m *Map) InjectorOp(action string) {
	if m == nil {
		return
	}
	h := fnvString(seed(FamInjector), "op")
	h = fnvByte(h, ':')
	h = fnvString(h, action)
	m.bump(h, FamInjector, "op", action, "")
}

// InjectorTransition records a state-machine transition edge
// (from→to, qualified by the driving input).
func (m *Map) InjectorTransition(from, to, input string) {
	if m == nil {
		return
	}
	h := fnvString(seed(FamInjector), from)
	h = fnvString(h, "->")
	h = fnvString(h, to)
	h = fnvByte(h, ':')
	h = fnvString(h, input)
	m.bump(h, FamInjector, from+"->"+to, input, "")
}

// GrantOp records a grant-table operation kind edge.
func (m *Map) GrantOp(op string) {
	if m == nil {
		return
	}
	h := fnvString(seed(FamGrant), op)
	m.bump(h, FamGrant, op, "", "")
}

// DomctlOp records a domctl operation kind edge.
func (m *Map) DomctlOp(op string) {
	if m == nil {
		return
	}
	h := fnvString(seed(FamDomctl), op)
	m.bump(h, FamDomctl, op, "", "")
}

// Merge adds every edge of o into m, exactly as if m had observed o's
// events itself: edges share identity hashes, so counts add per edge,
// and a map with no region classifier adopts o's, the one installed
// before o's events. A snapshot fork merges the coverage its snapshot's
// boot recorded this way, classifier included.
func (m *Map) Merge(o *Map) {
	if m == nil || o == nil {
		return
	}
	if m.frameClass == nil {
		m.frameClass = o.frameClass
	}
	for h, oe := range o.edges {
		if e, ok := m.edges[h]; ok {
			e.count += oe.count
			continue
		}
		c := *oe
		m.edges[h] = &c
	}
}

// FromEdges reconstructs a map from a settled edge list, for replaying
// persisted per-cell coverage (the campaign run ledger) back through
// the campaign aggregation. The reconstructed map renders and digests
// identically to the live one: Edges() output depends only on the
// (family, name, count) triples, not on the identity hashes used for
// in-map dedupe.
func FromEdges(edges []Edge) *Map {
	m := NewMap()
	for _, e := range edges {
		h := fnvString(seed(e.Family), e.Name)
		m.edges[h] = &edge{family: e.Family, name: e.Name, count: e.Count}
	}
	return m
}

// Len reports the number of distinct edges observed.
func (m *Map) Len() int {
	if m == nil {
		return 0
	}
	return len(m.edges)
}

// Edges returns the observed edges sorted by (family, name) — the
// canonical order used for rendering and digests.
func (m *Map) Edges() []Edge {
	if m == nil {
		return nil
	}
	out := make([]Edge, 0, len(m.edges))
	for _, e := range m.edges {
		out = append(out, Edge{Family: e.family, Name: e.name, Count: e.count})
	}
	SortEdges(out)
	return out
}

// SortEdges sorts edges into canonical (family, name) order.
func SortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Family != edges[j].Family {
			return edges[i].Family < edges[j].Family
		}
		return edges[i].Name < edges[j].Name
	})
}

// Canonical renders a sorted edge list in the canonical text form:
// one "family/name xCount" line per edge, no wall times, no ordering
// dependence on observation order.
func Canonical(edges []Edge) string {
	var b []byte
	for _, e := range edges {
		b = append(b, e.Family...)
		b = append(b, '/')
		b = append(b, e.Name...)
		b = append(b, " x"...)
		b = strconv.AppendUint(b, e.Count, 10)
		b = append(b, '\n')
	}
	return string(b)
}

// DigestOf returns the short hex digest (FNV-1a 64) of the canonical
// rendering of the edge list, hashed line by line without rendering it.
func DigestOf(edges []Edge) string {
	h := fnvOffset
	for _, e := range edges {
		h = fnvString(h, string(e.Family))
		h = fnvByte(h, '/')
		h = fnvString(h, e.Name)
		h = fnvString(h, " x")
		h = fnvUint(h, e.Count)
		h = fnvByte(h, '\n')
	}
	return hex16(h)
}

// hex16 renders h as 16 zero-padded lower-case hex digits, fmt's %016x.
func hex16(h uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// Digest returns the map's canonical digest.
func (m *Map) Digest() string { return DigestOf(m.Edges()) }

// Reason strings originate from error messages and may embed machine
// addresses or frame numbers ("mfn 0x2a", "frame 1055"). Edge names
// must be stable across layouts, so hex literals, bare hex runs and
// multi-digit decimal runs are masked. Single digits survive — they
// carry level numbers and domain ids, which are part of the behaviour.
var (
	hexLiteral = regexp.MustCompile(`0x[0-9a-fA-F]+`)
	bareHexRun = regexp.MustCompile(`\b[0-9a-f]{4,}\b`)
	digitRun   = regexp.MustCompile(`[0-9]{2,}`)
)

// MaskReason canonicalises a reason string for use in an edge name.
// A bare hex run is masked only when it mixes digits and letters —
// all-letter matches are English words ("feed", "dead"), and all-digit
// runs are decimal numbers, masked separately as «n».
func MaskReason(s string) string {
	s = hexLiteral.ReplaceAllString(s, "«x»")
	s = bareHexRun.ReplaceAllStringFunc(s, func(m string) string {
		hasDigit := strings.IndexFunc(m, func(r rune) bool { return r >= '0' && r <= '9' }) >= 0
		hasLetter := strings.IndexFunc(m, func(r rune) bool { return r >= 'a' && r <= 'f' }) >= 0
		if hasDigit && hasLetter {
			return "«x»"
		}
		return m
	})
	s = digitRun.ReplaceAllString(s, "«n»")
	return s
}
