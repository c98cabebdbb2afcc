// Package obs is a testdata stub mirroring the registration surface of
// lash/internal/obs. The analyzers match by import-path base, so this stub
// exercises exactly the production code paths.
package obs

type Registry struct{}

type Counter struct{}

func (c *Counter) Add(int64) {}
func (c *Counter) Inc()      {}

type Gauge struct{}

func (g *Gauge) Set(float64) {}

type Histogram struct{}

func (h *Histogram) Observe(float64) {}

func (r *Registry) Counter(name, help string, labels ...string) *Counter { return &Counter{} }
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge     { return &Gauge{} }
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return &Histogram{}
}
func (r *Registry) OnScrape(fn func()) {}

type JobPhases struct{ Map, Shuffle, Reduce *Histogram }

type PipelineMetrics struct {
	Mine           JobPhases
	ShuffleRecords *Counter
}

func (m *PipelineMetrics) Phases(job string) JobPhases { return m.Mine }

type RunCounters struct{ ShuffleRecords int64 }

type Run struct{ Metrics *PipelineMetrics }

func (r *Run) PipelineMetricsOf() *PipelineMetrics { return r.Metrics }
