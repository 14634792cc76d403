package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/geoloc"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// output is one checked result of an iteration: a digest of what the
// program produced (empty when the output is not deterministic) and the
// error of any seed-free invariant it broke.
type output struct {
	name   string
	digest string
	err    error
}

// pinTable holds the digests pinned per workload and seed:
// pins[workload][seed][output name].
type pinTable map[string]map[string]map[string]string

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// pinsFor returns the pins of one workload at one seed; nil when the
// seed is not pinned.
func (p pinTable) pinsFor(workload string, seed int64) map[string]string {
	return p[workload][fmt.Sprint(seed)]
}

// checker counts output checks: every output is one attempted check,
// failed when its invariant broke or its digest differs from the pin.
type checker struct {
	pins      map[string]string
	attempted int
	failed    int
	failures  []string
}

func (c *checker) check(outs []output) {
	for _, o := range outs {
		c.op(o.name, c.verify(o))
	}
}

func (c *checker) verify(o output) error {
	if o.err != nil {
		return o.err
	}
	if want, ok := c.pins[o.name]; ok && o.digest != "" && o.digest != want {
		return fmt.Errorf("digest %s, pinned %s", o.digest, want)
	}
	return nil
}

func (c *checker) op(name string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// sameDigests checks that two iterations produced the same
// deterministic outputs (the traced run against the untraced one).
func sameDigests(a, b []output) error {
	want := make(map[string]string, len(a))
	for _, o := range a {
		want[o.name] = o.digest
	}
	for _, o := range b {
		if o.digest != want[o.name] {
			return fmt.Errorf("%s: %q vs %q", o.name, o.digest, want[o.name])
		}
	}
	return nil
}

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// traceStats streams one dataset, checking the seed-free record
// invariants, and returns its record count and an order-independent
// digest (so an in-memory trace in emission order and the same trace
// read back from the store in segment order digest alike).
func traceStats(it capture.Iterator, span time.Duration) (int, string, error) {
	var n int
	var sum, xor uint64
	var bad error
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if bad == nil {
			bad = recordInvariant(r, span)
		}
		h := recordHash(r)
		sum += h
		xor ^= h * 0x9e3779b97f4a7c15
		n++
	}
	if err := it.Err(); err != nil {
		return n, "", err
	}
	if bad == nil && n == 0 {
		bad = fmt.Errorf("empty trace")
	}
	return n, fmt.Sprintf("%d:%016x:%016x", n, sum, xor), bad
}

// recordInvariant holds for every captured flow at any seed.
func recordInvariant(r capture.FlowRecord, span time.Duration) error {
	switch {
	case r.Start < 0 || r.Start >= span:
		return fmt.Errorf("flow starts at %v, outside [0, %v)", r.Start, span)
	case r.End < r.Start:
		return fmt.Errorf("flow ends at %v before its start %v", r.End, r.Start)
	case r.Bytes < 0:
		return fmt.Errorf("flow carries %d bytes", r.Bytes)
	case r.Client == 0 || r.Server == 0:
		return fmt.Errorf("flow without client or server address")
	}
	return nil
}

// recordHash is FNV-1a over every field, finished with a 64-bit mixer.
func recordHash(r capture.FlowRecord) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{uint64(r.Client), uint64(r.Server), uint64(r.Start), uint64(r.End), uint64(r.Bytes)} {
		h = (h ^ v) * prime
	}
	for i := 0; i < len(r.VideoID); i++ {
		h = (h ^ uint64(r.VideoID[i])) * prime
	}
	h = (h ^ 0xff) * prime
	for i := 0; i < len(r.Resolution); i++ {
		h = (h ^ uint64(r.Resolution[i])) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// regionsOutput digests the per-server CBG regions and checks that each
// is a valid position estimate.
func regionsOutput(regions map[ipnet.Addr]geoloc.Region) output {
	addrs := make([]ipnet.Addr, 0, len(regions))
	for a := range regions {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var b strings.Builder
	var bad error
	for _, a := range addrs {
		r := regions[a]
		fmt.Fprintf(&b, "%d %x %x %x %t\n", a, math.Float64bits(r.Centroid.Lat),
			math.Float64bits(r.Centroid.Lon), math.Float64bits(r.RadiusKm), r.Feasible)
		if bad == nil && (math.Abs(r.Centroid.Lat) > 90 || math.Abs(r.Centroid.Lon) > 180 || !(r.RadiusKm >= 0)) {
			bad = fmt.Errorf("server %v: invalid region %+v", a, r)
		}
	}
	if bad == nil && len(addrs) == 0 {
		bad = fmt.Errorf("no server located")
	}
	return output{name: "regions", digest: textDigest(b.String()), err: bad}
}
