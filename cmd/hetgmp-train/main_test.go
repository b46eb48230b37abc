package main

import (
	"testing"

	"hetgmp/internal/embed"
)

// TestTierConfig pins how the tier flags resolve against the feature count:
// fractions and absolute rows, a byte budget, an oversize hot request, and
// the rejected cold-without-hot combination.
func TestTierConfig(t *testing.T) {
	const features, dim = 1000, 8 // 32 bytes per row
	for _, tc := range []struct {
		name      string
		hot, cold float64
		budget    int64
		want      embed.TierConfig
		wantErr   bool
	}{
		{name: "flat"},
		{name: "fraction", hot: 0.125, cold: 0.5, want: embed.TierConfig{HotRows: 125, ColdRows: 500}},
		{name: "rows", hot: 64, cold: 300, want: embed.TierConfig{HotRows: 64, ColdRows: 300}},
		{name: "cold clamped to rows hot leaves", hot: 900, cold: 500, want: embed.TierConfig{HotRows: 900, ColdRows: 100}},
		{name: "budget", budget: 3200, want: embed.TierConfig{HotRows: 100, ColdRows: 900}},
		{name: "budget with cold", budget: 3200, cold: 0.5, want: embed.TierConfig{HotRows: 100, ColdRows: 500}},
		{name: "budget below one row", budget: 1, want: embed.TierConfig{HotRows: 1, ColdRows: 999}},
		{name: "budget oversize", budget: 1 << 30, want: embed.TierConfig{HotRows: features}},
		{name: "hot oversize", hot: 1e9, want: embed.TierConfig{HotRows: features}},
		{name: "hot oversize with cold", hot: 1e9, cold: 0.5, want: embed.TierConfig{HotRows: features}},
		{name: "cold without hot", cold: 0.5, wantErr: true},
	} {
		got, err := tierConfig(tc.hot, tc.cold, tc.budget, "", features, dim)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: got %+v, want an error", tc.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
