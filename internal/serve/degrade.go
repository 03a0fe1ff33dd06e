package serve

// Graceful degradation: the answer ladder.
//
// The ladder orders the distance tiers by fidelity:
//
//	exact O(1) (analytic metric / 2-hop labels)
//	  → BFS field cache (exact, but costs an O(n) field per target)
//	    → landmark triangle bounds (approximate upper bounds, O(k)/query)
//
// A healthy server answers from the top tier its snapshot packs.  The
// server walks down — never by operator action, always automatically —
// when a tier is missing (section quarantined at load) or unaffordable
// (simulated memory pressure makes per-target BFS fields the wrong trade).
// The landmark rung exists only beneath the field cache: the server builds
// it only when the snapshot has no exact O(1) tier, because an exact tier
// answers every query, an overloaded single GET included, and never falls
// further.  Every answer produced below the exact tiers carries
// "approx": true, so a client can always tell a degraded answer from a
// healthy one.
//
// A shard whose tasks keep panicking is not a ladder event: its breaker
// quarantines it (breaker.go) and the frozen contact tables never change,
// so the other shards' answers stay byte-identical throughout.

// selectTier is the pure ladder decision: exactTier is "" when the
// snapshot's O(1) tier is absent or quarantined, fieldsAffordable is false
// under memory pressure, haveLandmark reports the approximate tier was
// built.  The returned approx flag marks every answer served from the
// landmark tier.  Exactness outranks memory when there is no approximate
// tier to fall to: a server without landmarks keeps serving fields under
// pressure rather than refusing.
func selectTier(exactTier string, fieldsAffordable, haveLandmark bool) (tier string, approx bool) {
	switch {
	case exactTier != "":
		return exactTier, false
	case fieldsAffordable || !haveLandmark:
		return "field-cache", false
	default:
		return "landmark", true
	}
}
