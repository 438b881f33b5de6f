// Package trace models per-worker execution-speed time series.
//
// The paper measured 100 Digital Ocean droplets running matrix
// multiplication and logging speed at 1% progress granularity (Figure 2),
// observing that (a) speed drifts slowly — staying within ~10% over ~10
// neighbouring samples, (b) occasionally jumps abruptly to a new regime
// (shared-tenancy effects), and (c) some nodes degrade into stragglers an
// order of magnitude slower. This package generates synthetic traces with
// exactly those statistics, replays them deterministically, and
// exports/imports them as CSV. It is the substitute substrate for the
// paper's cloud measurements.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
)

// Trace holds speed samples for a set of workers. Speeds[w][t] is worker
// w's processing speed (rows per unit time) during step t.
type Trace struct {
	Speeds [][]float64
}

// NumWorkers returns the worker count.
func (t *Trace) NumWorkers() int { return len(t.Speeds) }

// Len returns the number of steps (0 for an empty trace).
func (t *Trace) Len() int {
	if len(t.Speeds) == 0 {
		return 0
	}
	return len(t.Speeds[0])
}

// At returns worker w's speed at step i, wrapping cyclically so traces can
// drive arbitrarily long simulations.
func (t *Trace) At(w, i int) float64 {
	s := t.Speeds[w]
	return s[i%len(s)]
}

// Row returns worker w's full series (aliased).
func (t *Trace) Row(w int) []float64 { return t.Speeds[w] }

// Config parameterises the generative speed model. Each worker draws a
// base speed uniformly from [BaseMin, BaseMax]. Within a regime the speed
// follows an AR(1) mean-reverting walk around base×regime with relative
// step noise DriftSigma; with probability SwitchProb per step the regime
// multiplier resamples from [RegimeMin, RegimeMax] (the abrupt shifts of
// Figure 2).
type Config struct {
	Workers int
	Steps   int
	Seed    int64

	BaseMin, BaseMax     float64
	DriftPhi             float64 // mean-reversion strength in (0,1]
	DriftSigma           float64 // per-step relative noise
	SwitchProb           float64
	RegimeMin, RegimeMax float64
	MinSpeed             float64 // floor, keeps speeds strictly positive
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Workers <= 0:
		return fmt.Errorf("trace: Workers = %d", c.Workers)
	case c.Steps <= 0:
		return fmt.Errorf("trace: Steps = %d", c.Steps)
	case c.BaseMin <= 0 || c.BaseMax < c.BaseMin:
		return fmt.Errorf("trace: base speed range [%v,%v]", c.BaseMin, c.BaseMax)
	case c.DriftPhi < 0 || c.DriftPhi > 1:
		return fmt.Errorf("trace: DriftPhi = %v", c.DriftPhi)
	case c.SwitchProb < 0 || c.SwitchProb > 1:
		return fmt.Errorf("trace: SwitchProb = %v", c.SwitchProb)
	case c.RegimeMin <= 0 || c.RegimeMax < c.RegimeMin:
		return fmt.Errorf("trace: regime range [%v,%v]", c.RegimeMin, c.RegimeMax)
	}
	return nil
}

// Generate produces a deterministic trace from the config.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Speeds: make([][]float64, cfg.Workers)}
	for w := 0; w < cfg.Workers; w++ {
		base := cfg.BaseMin + rng.Float64()*(cfg.BaseMax-cfg.BaseMin)
		regime := 1.0
		cur := base
		series := make([]float64, cfg.Steps)
		for t := 0; t < cfg.Steps; t++ {
			if rng.Float64() < cfg.SwitchProb {
				regime = cfg.RegimeMin + rng.Float64()*(cfg.RegimeMax-cfg.RegimeMin)
			}
			target := base * regime
			// Mean-reverting step toward the regime target plus
			// proportional Gaussian noise.
			cur += cfg.DriftPhi * (target - cur)
			cur += cur * cfg.DriftSigma * rng.NormFloat64()
			if cur < cfg.MinSpeed {
				cur = cfg.MinSpeed
			}
			series[t] = cur
		}
		tr.Speeds[w] = series
	}
	return tr, nil
}

// StragglerSpec marks worker Worker as slowed by Factor (e.g. 5 means 5×
// slower) during steps [From, To). To <= 0 means "until the end".
type StragglerSpec struct {
	Worker int
	Factor float64
	From   int
	To     int
}

// ApplyStragglers divides the specified workers' speeds in place and
// returns the trace for chaining.
func (t *Trace) ApplyStragglers(specs ...StragglerSpec) *Trace {
	for _, s := range specs {
		if s.Worker < 0 || s.Worker >= t.NumWorkers() || s.Factor <= 0 {
			panic(fmt.Sprintf("trace: bad straggler spec %+v", s))
		}
		to := s.To
		if to <= 0 || to > t.Len() {
			to = t.Len()
		}
		for i := s.From; i < to; i++ {
			t.Speeds[s.Worker][i] /= s.Factor
		}
	}
	return t
}

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	out := &Trace{Speeds: make([][]float64, len(t.Speeds))}
	for i, s := range t.Speeds {
		out.Speeds[i] = append([]float64(nil), s...)
	}
	return out
}

// WriteCSV emits the trace as step,worker0,worker1,... rows.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.NumWorkers()+1)
	header[0] = "step"
	for i := 0; i < t.NumWorkers(); i++ {
		header[i+1] = fmt.Sprintf("worker%d", i)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, t.NumWorkers()+1)
	for step := 0; step < t.Len(); step++ {
		row[0] = strconv.Itoa(step)
		for i := 0; i < t.NumWorkers(); i++ {
			row[i+1] = strconv.FormatFloat(t.Speeds[i][step], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace previously written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("trace: CSV has no data rows")
	}
	workers := len(records[0]) - 1
	if workers <= 0 {
		return nil, fmt.Errorf("trace: CSV has no worker columns")
	}
	tr := &Trace{Speeds: make([][]float64, workers)}
	for w := range tr.Speeds {
		tr.Speeds[w] = make([]float64, len(records)-1)
	}
	for i, rec := range records[1:] {
		if len(rec) != workers+1 {
			return nil, fmt.Errorf("trace: CSV row %d has %d fields want %d", i+1, len(rec), workers+1)
		}
		for w := 0; w < workers; w++ {
			v, err := strconv.ParseFloat(rec[w+1], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: CSV row %d col %d: %w", i+1, w+1, err)
			}
			tr.Speeds[w][i] = v
		}
	}
	return tr, nil
}
