//go:build race

package trace

// raceEnabled: the race runtime's sync.Pool drops a share of Puts on
// purpose, so allocation bounds that rely on pooled slabs do not hold.
const raceEnabled = true
