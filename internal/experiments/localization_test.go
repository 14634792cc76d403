package experiments

import (
	"fmt"
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/geoloc"
	"github.com/ytcdn-sim/ytcdn/internal/geoloc/geoloctest"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/par"
)

// TestLocalizationMatchesHaversineOracle pins the localization
// pipeline's output to the full-haversine CBG reference: every server
// the harness located must get the reference's Region bit for bit, at
// two seeds and two scales.
func TestLocalizationMatchesHaversineOracle(t *testing.T) {
	for _, seed := range []int64{20100904, 77031} {
		for _, scale := range []float64{0.05, 0.25} {
			t.Run(fmt.Sprintf("seed%d/scale%g", seed, scale), func(t *testing.T) {
				h := New(buildStudy(t, seed, scale))
				regions, err := h.geolocate()
				if err != nil {
					t.Fatal(err)
				}
				addrs := make([]ipnet.Addr, 0, len(regions))
				for a := range regions {
					addrs = append(addrs, a)
				}
				want := make([]geoloc.Region, len(addrs))
				errs := make([]error, len(addrs))
				par.ForEach(len(addrs), h.par, func(i int) {
					rtts, err := h.prober.LandmarkRTTs(addrs[i], 3)
					if err != nil {
						errs[i] = err
						return
					}
					want[i] = geoloctest.Locate(h.cbg, rtts)
				})
				diff := 0
				for i, a := range addrs {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					if got := regions[a]; !geoloctest.Same(got, want[i]) {
						if diff++; diff <= 5 {
							t.Errorf("server %v: Region %+v, oracle %+v", a, got, want[i])
						}
					}
				}
				if diff > 0 {
					t.Errorf("%d of %d servers differ from the oracle", diff, len(addrs))
				}
				t.Logf("%d servers match the oracle", len(addrs))
			})
		}
	}
}
