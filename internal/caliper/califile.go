package caliper

import (
	"encoding/json"
	"fmt"
)

// caliFile is the JSON schema of a serialized profile — the simulated
// analogue of a .cali file, letting always-on profiles travel with
// shared results (Section 5) and load into Thicket elsewhere.
type caliFile struct {
	Format  string                `json:"format"`
	Regions map[string]RegionStat `json:"regions"`
	Metrics map[string]float64    `json:"metrics,omitempty"`
}

// caliFormat tags the interchange version.
const caliFormat = "cali-json-1"

// JSON serializes the profile as a .cali-style JSON document.
func (p *Profile) JSON() (string, error) {
	b, err := json.MarshalIndent(caliFile{
		Format:  caliFormat,
		Regions: p.Regions,
		Metrics: p.Metrics,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ParseProfile reads a profile back from its JSON form. The decoded
// maps become the profile's own; nothing is copied.
func ParseProfile(src string) (*Profile, error) {
	var f caliFile
	if err := json.Unmarshal([]byte(src), &f); err != nil {
		return nil, fmt.Errorf("caliper: bad profile file: %w", err)
	}
	if f.Format != caliFormat {
		return nil, fmt.Errorf("caliper: unsupported profile format %q", f.Format)
	}
	p := &Profile{Regions: f.Regions, Metrics: f.Metrics}
	if p.Regions == nil {
		p.Regions = map[string]RegionStat{}
	}
	if p.Metrics == nil {
		p.Metrics = map[string]float64{}
	}
	return p, nil
}
