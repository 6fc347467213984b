package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
)

// SARIF 2.1.0 output: the static-analysis interchange format GitHub code
// scanning ingests, so dvf-lint findings render as PR annotations. Only
// the spec's required skeleton plus the properties code scanning uses
// are emitted; sarif_test.go checks the output against a structural
// encoding of the 2.1.0 schema's requirements.

const (
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion = "2.1.0"
)

// SarifLog is the document root ({$schema, version, runs}).
type SarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []SarifRun `json:"runs"`
}

// SarifRun is one tool invocation. Properties is the spec's optional
// run-level property bag; dvf-lint -timings records per-checker cost
// there so it rides along with uploaded findings.
type SarifRun struct {
	Tool       SarifTool      `json:"tool"`
	Results    []SarifResult  `json:"results"`
	Properties map[string]any `json:"properties,omitempty"`
}

// SarifTool wraps the driver description.
type SarifTool struct {
	Driver SarifDriver `json:"driver"`
}

// SarifDriver describes dvf-lint and its rules (one per checker).
type SarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []SarifRule `json:"rules"`
}

// SarifRule is one checker's reporting descriptor.
type SarifRule struct {
	ID               string       `json:"id"`
	ShortDescription SarifMessage `json:"shortDescription"`
}

// SarifMessage is a text-bearing message object.
type SarifMessage struct {
	Text string `json:"text"`
}

// SarifResult is one finding.
type SarifResult struct {
	RuleID              string            `json:"ruleId"`
	RuleIndex           int               `json:"ruleIndex"`
	Level               string            `json:"level"`
	Message             SarifMessage      `json:"message"`
	Locations           []SarifLocation   `json:"locations"`
	PartialFingerprints map[string]string `json:"partialFingerprints,omitempty"`
}

// SarifLocation wraps a physical location.
type SarifLocation struct {
	PhysicalLocation SarifPhysicalLocation `json:"physicalLocation"`
}

// SarifPhysicalLocation names a file region.
type SarifPhysicalLocation struct {
	ArtifactLocation SarifArtifactLocation `json:"artifactLocation"`
	Region           SarifRegion           `json:"region"`
}

// SarifArtifactLocation is a base-relative file reference.
type SarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

// SarifRegion is a 1-based line region.
type SarifRegion struct {
	StartLine int `json:"startLine"`
}

// SarifReport assembles diagnostics into a SARIF 2.1.0 log. baseDir
// makes artifact URIs repo-relative (GitHub requires paths relative to
// the checkout root); analyzers become the rule table, in name order,
// so ruleIndex references stay stable across runs.
func SarifReport(diags []Diagnostic, analyzers []*Analyzer, baseDir string) *SarifLog {
	ruleIdx := make(map[string]int)
	rules := make([]SarifRule, 0, len(analyzers)+1)
	add := func(name, doc string) {
		if _, ok := ruleIdx[name]; ok {
			return
		}
		ruleIdx[name] = len(rules)
		rules = append(rules, SarifRule{ID: name, ShortDescription: SarifMessage{Text: doc}})
	}
	names := make([]*Analyzer, len(analyzers))
	copy(names, analyzers)
	sort.Slice(names, func(i, j int) bool { return names[i].Name < names[j].Name })
	for _, a := range names {
		add(a.Name, a.Doc)
	}
	// The framework's own directive findings use a pseudo-rule.
	add("directive", "malformed or stale //dvf:allow directives")

	results := make([]SarifResult, 0, len(diags))
	for _, d := range diags {
		if _, ok := ruleIdx[d.Checker]; !ok {
			add(d.Checker, "")
		}
		uri := relURI(baseDir, d.Pos.Filename)
		results = append(results, SarifResult{
			RuleID:    d.Checker,
			RuleIndex: ruleIdx[d.Checker],
			Level:     "error",
			Message:   SarifMessage{Text: d.Message},
			Locations: []SarifLocation{{
				PhysicalLocation: SarifPhysicalLocation{
					ArtifactLocation: SarifArtifactLocation{URI: uri, URIBaseID: "%SRCROOT%"},
					Region:           SarifRegion{StartLine: max(d.Pos.Line, 1)},
				},
			}},
			PartialFingerprints: map[string]string{
				"dvfLintFingerprint/v1": Fingerprint(d.Checker, uri, d.Message),
			},
		})
	}
	return &SarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []SarifRun{{
			Tool: SarifTool{Driver: SarifDriver{
				Name:           "dvf-lint",
				InformationURI: "https://github.com/resilience-models/dvf",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
}

// Write encodes the log as indented JSON.
func (l *SarifLog) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// Fingerprint is the line-insensitive identity of a finding — checker,
// repo-relative file and message, hashed — carried in the SARIF
// partialFingerprints, so code scanning tracks a finding across
// unrelated edits that shift its line.
func Fingerprint(checker, relFile, message string) string {
	h := sha256.Sum256([]byte(checker + "\x00" + filepath.ToSlash(relFile) + "\x00" + message))
	return hex.EncodeToString(h[:16])
}

// relURI renders file relative to baseDir with forward slashes; files
// outside baseDir keep their absolute path.
func relURI(baseDir, file string) string {
	if baseDir != "" {
		if rel, err := filepath.Rel(baseDir, file); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}
