package telemetry

import (
	"encoding/json"

	"faultyrank/internal/bincodec"
)

// ManifestSchema identifies the RunManifest JSON layout. Bump on any
// incompatible change so downstream tooling can dispatch on it.
const ManifestSchema = "faultyrank/run-manifest/v1"

// RunManifest is the machine-readable record of one run: the options
// it ran under, the phase-timing span tree, the final counter
// snapshot, and tool-specific results (coverage, findings, convergence
// …). Field types are deliberately generic — the checker, bench and
// graph tools all write the same envelope with their own payloads.
type RunManifest struct {
	Schema  string         `json:"schema"`
	Tool    string         `json:"tool"`
	Options any            `json:"options,omitempty"`
	Phases  *SpanNode      `json:"phases,omitempty"`
	Metrics Snapshot       `json:"metrics"`
	Results map[string]any `json:"results,omitempty"`
}

// NewRunManifest starts a manifest for tool with the schema stamped.
func NewRunManifest(tool string) *RunManifest {
	return &RunManifest{Schema: ManifestSchema, Tool: tool, Results: map[string]any{}}
}

// WriteJSON marshals v with indentation and writes it to path via a
// temp file + rename, so a crash mid-write never leaves a truncated
// manifest behind.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return bincodec.WriteFileAtomic(path, append(data, '\n'))
}
