package t3core

import (
	"t3sim/internal/sim"
)

// runMultiDeviceOracle is the shared-engine reference for the explicit
// multi-device run: the same device models, wired by the same setup and
// collected by the same code as RunFusedGEMMRSMultiDevice, but every device
// on one engine over a Topo.Build(eng) topology, so cross-device deliveries
// are plain eng.At events and no cluster coordination takes part. The
// cluster run must reproduce it exactly at every worker count.
func runMultiDeviceOracle(o FusedOptions) (MultiDeviceResult, error) {
	o, err := multiDeviceOptions(o)
	if err != nil {
		return MultiDeviceResult{}, err
	}
	eng := sim.NewEngine()
	eng.AttachChecker(o.Check)
	topo, err := o.Topo.Build(eng)
	if err != nil {
		return MultiDeviceResult{}, err
	}
	engs := make([]*sim.Engine, o.Devices)
	for d := range engs {
		engs[d] = eng
	}
	r, err := startMultiRun(o, engs, topo)
	if err != nil {
		return MultiDeviceResult{}, err
	}
	eng.Run()
	return r.result()
}
