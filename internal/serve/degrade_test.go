package serve

import "testing"

// TestSelectTier pins the full ladder decision table: the exact tier when
// present, fields while affordable, landmarks only under pressure, and
// exactness over memory when there is nothing approximate to fall to.
func TestSelectTier(t *testing.T) {
	cases := []struct {
		exact            string
		fieldsAffordable bool
		haveLandmark     bool
		wantTier         string
		wantApprox       bool
	}{
		{"twohop", true, true, "twohop", false},
		{"twohop", false, true, "twohop", false}, // exact O(1) tier ignores memory pressure
		{"analytic", true, false, "analytic", false},
		{"", true, true, "field-cache", false},
		{"", true, false, "field-cache", false},
		{"", false, true, "landmark", true},
		{"", false, false, "field-cache", false}, // no approximate rung: stay exact
	}
	for _, c := range cases {
		tier, approx := selectTier(c.exact, c.fieldsAffordable, c.haveLandmark)
		if tier != c.wantTier || approx != c.wantApprox {
			t.Errorf("selectTier(%q, fields=%v, landmark=%v) = (%q, %v), want (%q, %v)",
				c.exact, c.fieldsAffordable, c.haveLandmark, tier, approx, c.wantTier, c.wantApprox)
		}
	}
}
