package caliper

import "encoding/json"

// caliFile is the JSON schema of a serialized profile — the simulated
// analogue of a .cali file, letting always-on profiles travel with
// shared results (Section 5) and load into Thicket elsewhere.
type caliFile struct {
	Format  string                `json:"format"`
	Regions map[string]RegionStat `json:"regions"`
	Metrics map[string]float64    `json:"metrics,omitempty"`
}

// FileFormat tags the interchange version: the "format" member of
// every profile JSON writes. The one reader of the form is core's
// restore of a run-layer entry, which refuses any other tag.
const FileFormat = "cali-json-1"

// JSON serializes the profile as a .cali-style JSON document.
func (p *Profile) JSON() (string, error) {
	b, err := json.MarshalIndent(caliFile{
		Format:  FileFormat,
		Regions: p.Regions,
		Metrics: p.Metrics,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}
