package metrics

// Meter accumulates completed work over simulated time and reports average
// throughput. It supports marking a measurement start so that warmup work is
// excluded from the reported rate.
type Meter struct {
	total     float64
	totalAll  float64
	startTime float64
	started   bool
	lastTime  float64
}

// Add records amount units of completed work at simulated time now.
func (m *Meter) Add(now, amount float64) {
	m.totalAll += amount
	if m.started {
		m.total += amount
	}
	m.lastTime = now
}

// StartMeasurement discards everything recorded so far and begins the
// measured interval at time now.
func (m *Meter) StartMeasurement(now float64) {
	m.started = true
	m.startTime = now
	m.total = 0
}

// Total returns the work completed during the measured interval (or since
// creation if StartMeasurement was never called).
func (m *Meter) Total() float64 {
	if m.started {
		return m.total
	}
	return m.totalAll
}

// Rate returns throughput in units per second as of time now.
func (m *Meter) Rate(now float64) float64 {
	start := 0.0
	if m.started {
		start = m.startTime
	}
	dt := now - start
	if dt <= 0 {
		return 0
	}
	return m.Total() / dt
}
