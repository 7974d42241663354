package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"hybridqos/internal/admission"
	"hybridqos/internal/catalog"
	"hybridqos/internal/faults"
)

// CatalogConfig parameterises the served item database (the same generator
// the simulator uses, so a daemon and a sim run can share a catalog).
type CatalogConfig struct {
	D      int     `json:"d"`
	Theta  float64 `json:"theta"`
	MinLen int     `json:"min_len"`
	MaxLen int     `json:"max_len"`
	Seed   uint64  `json:"seed"`
}

// ClassAdmission bounds one class at the daemon's front door; see
// admission.ClassConfig for field semantics. The zero value is fully open.
type ClassAdmission struct {
	Rate       float64 `json:"rate,omitempty"`
	Burst      float64 `json:"burst,omitempty"`
	MaxPending int     `json:"max_pending,omitempty"`
	Deadline   float64 `json:"deadline,omitempty"`
}

// ShedConfig mirrors faults.ShedConfig with JSON names.
type ShedConfig struct {
	High           int `json:"high"`
	Low            int `json:"low"`
	MaxShedClasses int `json:"max_shed_classes,omitempty"`
}

// AdmissionConfig is the admission section of the daemon configuration.
type AdmissionConfig struct {
	// DefaultDeadline is the delay budget, in broadcast units, for classes
	// without their own. Required: deadlines bound graceful drain.
	DefaultDeadline float64 `json:"default_deadline"`
	// Classes optionally bounds each class; omitted or short, missing
	// classes are fully open.
	Classes []ClassAdmission `json:"classes,omitempty"`
	// Shed enables hysteresis overload shedding.
	Shed *ShedConfig `json:"shed,omitempty"`
}

// Config is the qosd daemon configuration, loaded from JSON.
type Config struct {
	Catalog CatalogConfig `json:"catalog"`
	// ClassWeights are the per-class priority weights, premium first
	// (strictly decreasing, as in the paper's classification).
	ClassWeights []float64 `json:"class_weights"`
	// Cutoff is K: items 1..K broadcast, K+1..D on demand.
	Cutoff int `json:"cutoff"`
	// Alpha is the importance-factor mixing fraction for the gamma policy.
	Alpha float64 `json:"alpha"`
	// PullPolicy and PushPolicy name registry policies ("" = paper defaults).
	PullPolicy string `json:"pull_policy,omitempty"`
	PushPolicy string `json:"push_policy,omitempty"`
	PushDisks  int    `json:"push_disks,omitempty"`
	// UnitMillis maps one broadcast unit onto wall milliseconds.
	UnitMillis float64 `json:"unit_ms"`
	// Keys maps API keys to 0-based service classes.
	Keys map[string]int `json:"keys"`
	// DefaultClass serves requests with an unknown or missing API key:
	// a class index, or -1 to reject them with 401. Omitted means -1.
	DefaultClass *int `json:"default_class,omitempty"`
	// Admission configures the class-aware front door.
	Admission AdmissionConfig `json:"admission"`
	// Spans enables per-request span recording, served at /debug/spans.
	Spans *SpansConfig `json:"spans,omitempty"`
}

// SpansConfig is the span-recording section of the daemon configuration.
type SpansConfig struct {
	// Rate is the head-sampling probability in [0,1].
	Rate float64 `json:"rate"`
	// Buffer is the completed-span ring capacity (0 = default 64).
	Buffer int `json:"buffer,omitempty"`
	// Seed seeds the sampling stream (deterministic under the virtual
	// clock; under the wall clock it only sets which arrivals sample).
	Seed uint64 `json:"seed,omitempty"`
}

// ParseConfig decodes and validates a JSON daemon configuration. Unknown
// fields are rejected: a typo in an admission bound must not silently
// leave the door open.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("qosd: parsing config: %w", err)
	}
	if dec.More() {
		return Config{}, fmt.Errorf("qosd: trailing data after config object")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// defaultClass resolves the DefaultClass pointer (-1 when omitted).
func (c Config) defaultClass() int {
	if c.DefaultClass == nil {
		return -1
	}
	return *c.DefaultClass
}

// admissionConfig lowers the JSON shape onto the admission package's.
func (c Config) admissionConfig() admission.Config {
	classes := make([]admission.ClassConfig, len(c.ClassWeights))
	for i := range classes {
		if i < len(c.Admission.Classes) {
			ca := c.Admission.Classes[i]
			classes[i] = admission.ClassConfig{
				Rate:       ca.Rate,
				Burst:      ca.Burst,
				MaxPending: ca.MaxPending,
				Deadline:   ca.Deadline,
			}
		}
	}
	out := admission.Config{
		Classes:         classes,
		DefaultDeadline: c.Admission.DefaultDeadline,
	}
	if c.Admission.Shed != nil {
		out.Shed = &faults.ShedConfig{
			High:           c.Admission.Shed.High,
			Low:            c.Admission.Shed.Low,
			MaxShedClasses: c.Admission.Shed.MaxShedClasses,
		}
	}
	return out
}

// Validate audits the configuration without building anything.
func (c Config) Validate() error {
	if err := (catalog.Config{
		D: c.Catalog.D, Theta: c.Catalog.Theta,
		MinLen: c.Catalog.MinLen, MaxLen: c.Catalog.MaxLen, Seed: c.Catalog.Seed,
	}).Validate(); err != nil {
		return fmt.Errorf("qosd: %w", err)
	}
	numClasses := len(c.ClassWeights)
	if numClasses == 0 {
		return fmt.Errorf("qosd: no class weights")
	}
	for i := 1; i < numClasses; i++ {
		if !(c.ClassWeights[i] < c.ClassWeights[i-1]) {
			return fmt.Errorf("qosd: class weights must strictly decrease (index %d)", i)
		}
	}
	if c.ClassWeights[numClasses-1] <= 0 || math.IsNaN(c.ClassWeights[0]) || math.IsInf(c.ClassWeights[0], 0) {
		return fmt.Errorf("qosd: class weights must be positive and finite")
	}
	if c.Cutoff < 0 || c.Cutoff > c.Catalog.D {
		return fmt.Errorf("qosd: cutoff %d out of [0,%d]", c.Cutoff, c.Catalog.D)
	}
	if !(c.UnitMillis > 0) || math.IsInf(c.UnitMillis, 0) {
		return fmt.Errorf("qosd: unit_ms %g not positive and finite", c.UnitMillis)
	}
	if len(c.Admission.Classes) > numClasses {
		return fmt.Errorf("qosd: %d admission classes for %d classes", len(c.Admission.Classes), numClasses)
	}
	if dc := c.defaultClass(); dc < -1 || dc >= numClasses {
		return fmt.Errorf("qosd: default_class %d outside [-1,%d)", dc, numClasses)
	}
	// Audit key mappings in sorted order (deterministic error messages).
	for _, k := range sortedKeys(c.Keys) {
		if k == "" {
			return fmt.Errorf("qosd: empty API key")
		}
		if cls := c.Keys[k]; cls < 0 || cls >= numClasses {
			return fmt.Errorf("qosd: key %q maps to class %d outside [0,%d)", k, cls, numClasses)
		}
	}
	if s := c.Spans; s != nil {
		if s.Rate < 0 || s.Rate > 1 || math.IsNaN(s.Rate) {
			return fmt.Errorf("qosd: span rate %g outside [0,1]", s.Rate)
		}
		if s.Buffer < 0 {
			return fmt.Errorf("qosd: negative span buffer %d", s.Buffer)
		}
	}
	if err := c.admissionConfig().Validate(); err != nil {
		return err
	}
	return nil
}

// sortedKeys returns m's keys in sorted order (the repository's maporder
// contract: map iteration only ever happens through a sorted key list).
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Request is one client request, POSTed to /request as JSON.
type Request struct {
	// Item is the catalog rank in [1, D].
	Item int `json:"item"`
	// DeadlineIn optionally tightens (never extends) the class's delay
	// budget, in broadcast units.
	DeadlineIn float64 `json:"deadline_in,omitempty"`
}

// ParseRequest decodes and sanity-checks one request body. Item range is
// checked against the live catalog by the daemon; here only structural
// validity (the parser has no catalog).
func ParseRequest(data []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("qosd: parsing request: %w", err)
	}
	if dec.More() {
		return Request{}, fmt.Errorf("qosd: trailing data after request object")
	}
	if req.Item < 1 {
		return Request{}, fmt.Errorf("qosd: item %d not positive", req.Item)
	}
	if req.DeadlineIn < 0 || math.IsNaN(req.DeadlineIn) || math.IsInf(req.DeadlineIn, 0) {
		return Request{}, fmt.Errorf("qosd: invalid deadline_in %g", req.DeadlineIn)
	}
	return req, nil
}
