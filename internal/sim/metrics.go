package sim

// Aggregate accumulates per-round accounting across an iterative job.
type Aggregate struct {
	Rounds            int
	TotalLatency      float64
	PerWorkerComputed []int
	PerWorkerUsed     []int
	Mispredictions    int
	ReassignedRows    int
	BytesMoved        float64
	Latencies         []float64
}

// AddRound folds one round into the aggregate (a PolyRound passes its
// embedded Round).
func (a *Aggregate) AddRound(r *Round) {
	a.Rounds++
	a.TotalLatency += r.Latency
	a.Latencies = append(a.Latencies, r.Latency)
	if a.PerWorkerComputed == nil {
		a.PerWorkerComputed = make([]int, len(r.ComputedRows))
		a.PerWorkerUsed = make([]int, len(r.UsedRows))
	}
	for w := range r.ComputedRows {
		a.PerWorkerComputed[w] += r.ComputedRows[w]
		a.PerWorkerUsed[w] += r.UsedRows[w]
	}
	if r.Mispredicted {
		a.Mispredictions++
	}
	a.ReassignedRows += r.ReassignedRows
	a.BytesMoved += r.BytesMoved
}

// MeanLatency returns the average round latency.
func (a *Aggregate) MeanLatency() float64 {
	if a.Rounds == 0 {
		return 0
	}
	return a.TotalLatency / float64(a.Rounds)
}

// WastedFraction returns worker w's wasted-computation fraction across the
// whole job (the Figures 9/11 metric).
func (a *Aggregate) WastedFraction(w int) float64 {
	if w >= len(a.PerWorkerComputed) || a.PerWorkerComputed[w] == 0 {
		return 0
	}
	return float64(a.PerWorkerComputed[w]-a.PerWorkerUsed[w]) / float64(a.PerWorkerComputed[w])
}

// TotalWastedFraction returns cluster-wide wasted work.
func (a *Aggregate) TotalWastedFraction() float64 {
	c, u := 0, 0
	for w := range a.PerWorkerComputed {
		c += a.PerWorkerComputed[w]
		u += a.PerWorkerUsed[w]
	}
	if c == 0 {
		return 0
	}
	return float64(c-u) / float64(c)
}

// MispredictionRate returns the fraction of rounds where the timeout fired.
func (a *Aggregate) MispredictionRate() float64 {
	if a.Rounds == 0 {
		return 0
	}
	return float64(a.Mispredictions) / float64(a.Rounds)
}
