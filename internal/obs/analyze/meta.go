package analyze

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
)

// Meta stamps a report with the identity of the run that produced it, so
// Diff can refuse to compare incomparable runs. Two classes of field:
//
//   - Identity: Schema and ConfigHash. A mismatch makes two reports
//     incomparable — the gated quantities (phase shares, overlap, bytes)
//     are only meaningful against the same workload, topology and seed.
//   - Environment: GoVersion, GOMAXPROCS, GitCommit. These are recorded
//     for provenance but never gated — the simulation is deterministic at
//     any parallelism, so environment drift must not fail the gate.
type Meta struct {
	Schema     int    `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GitCommit is the VCS revision embedded at build time (empty for test
	// binaries and non-VCS builds).
	GitCommit string `json:"git_commit,omitempty"`
	// ConfigHash fingerprints the run-defining parameters (workload, model,
	// topology, protocol, seed); see HashConfig.
	ConfigHash string `json:"config_hash,omitempty"`
	// Label is a free-form run name ("baseline", "pr-123").
	Label string `json:"label,omitempty"`
	// Rank and WorldSize identify the producing process of a distributed
	// run (WorldSize 0 means single-process). They are identity for
	// MergeCluster — which requires one report per rank of one world — but
	// never gated by Diff.
	Rank      int `json:"rank,omitempty"`
	WorldSize int `json:"world_size,omitempty"`
}

// CollectMeta fills the environment fields and attaches the given config
// hash. The git commit comes from the build info the Go linker embeds when
// the binary is built inside a VCS checkout.
func CollectMeta(configHash string) Meta {
	return Meta{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit:  vcsRevision(),
		ConfigHash: configHash,
	}
}

func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// HashConfig fingerprints an ordered list of run-defining values as a
// 64-bit FNV-1a hex string. Callers (engine.Config.Hash) list
// every parameter that changes what a comparable run would measure.
func HashConfig(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Comparable reports whether two report stamps describe comparable runs:
// same schema and same config hash. allowConfig skips the config-hash
// check (for cross-workload exploration); the schema check is never
// skipped. Unknown (empty) config hashes are incomparable unless allowed —
// refusing is the safe default for a CI gate.
func Comparable(a, b Meta, allowConfig bool) error {
	if a.Schema != b.Schema {
		return fmt.Errorf("analyze: schema %d vs %d — regenerate the older report", a.Schema, b.Schema)
	}
	if allowConfig {
		return nil
	}
	if a.ConfigHash == "" || b.ConfigHash == "" {
		return fmt.Errorf("analyze: missing config hash (unstamped report) — pass -allow-meta to compare anyway")
	}
	if a.ConfigHash != b.ConfigHash {
		return fmt.Errorf("analyze: config hash %s vs %s — the runs measured different configurations (pass -allow-meta to override)",
			a.ConfigHash, b.ConfigHash)
	}
	return nil
}

// EnvironmentNotes lists non-gated environment differences worth printing
// alongside a diff.
func EnvironmentNotes(a, b Meta) []string {
	var notes []string
	if a.GoVersion != b.GoVersion {
		notes = append(notes, fmt.Sprintf("go version differs: %s vs %s (not gated)", a.GoVersion, b.GoVersion))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		notes = append(notes, fmt.Sprintf("GOMAXPROCS differs: %d vs %d (not gated; simulation is parallelism-deterministic)", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GitCommit != "" && b.GitCommit != "" && a.GitCommit != b.GitCommit {
		notes = append(notes, fmt.Sprintf("built from %.12s vs %.12s", a.GitCommit, b.GitCommit))
	}
	return notes
}
