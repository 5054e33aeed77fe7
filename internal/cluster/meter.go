package cluster

// Meter accumulates machine running time across all released containers.
// Cost conversion (machine time x unit price) happens at the metrics
// layer, where per-job prices are known; the cluster-level meter is the
// ground truth for total VM occupancy.
type Meter struct {
	machineTime float64
	releases    uint64
}

func (m *Meter) charge(duration float64) {
	if duration < 0 {
		panic("cluster: negative container occupancy")
	}
	m.machineTime += duration
	m.releases++
}

// MachineTime returns the total container occupancy charged so far.
func (m *Meter) MachineTime() float64 { return m.machineTime }

// Releases returns the number of containers released so far.
func (m *Meter) Releases() uint64 { return m.releases }
