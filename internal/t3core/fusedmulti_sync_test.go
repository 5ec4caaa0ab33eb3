package t3core

import (
	"reflect"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/interconnect"
	"t3sim/internal/sim"
)

// TestMultiDeviceSyncModesMatch is the t3core-level cross-mode oracle the
// ISSUE names: on ring, torus and hierarchy graphs, forcing the cluster into
// windowed or appointment synchronization must reproduce the sequential
// shared-engine result exactly — every field, every device — at workers
// 1/2/4/8, with the invariant checker clean throughout.
func TestMultiDeviceSyncModesMatch(t *testing.T) {
	link := interconnect.DefaultConfig()
	inter := link
	inter.LinkBandwidth = link.LinkBandwidth / 3
	inter.LinkLatency = 4 * link.LinkLatency
	specs := []interconnect.TopoSpec{
		{}, // zero spec: the default ring
		interconnect.RingTopo(8, link),
		interconnect.TorusTopo(2, 4, link),
		interconnect.HierarchicalTopo(2, 4, link, inter),
	}
	for _, spec := range specs {
		o := fusedOpts(t, 8)
		o.Topo = spec
		want, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			t.Fatalf("%v: %v", spec.Kind, err)
		}
		for _, mode := range []sim.ClusterSyncMode{sim.SyncWindowed, sim.SyncAppointment} {
			for _, workers := range []int{1, 2, 4, 8} {
				po := o
				po.ParWorkers = workers
				po.SyncMode = mode
				chk := check.New()
				po.Check = chk
				var st sim.ClusterStats
				po.ClusterStats = &st
				got, err := RunFusedGEMMRSMultiDevice(po)
				if err != nil {
					t.Fatalf("%v mode=%v workers=%d: %v", spec.Kind, mode, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v mode=%v workers=%d: result diverged from sequential",
						spec.Kind, mode, workers)
				}
				if !chk.Ok() {
					t.Errorf("%v mode=%v workers=%d: violations: %v", spec.Kind, mode, workers, chk.Violations())
				}
				if st.Mode != mode {
					t.Errorf("%v mode=%v workers=%d: cluster resolved to %v", spec.Kind, mode, workers, st.Mode)
				}
				if mode == sim.SyncAppointment && st.NullMessages == 0 {
					t.Errorf("%v workers=%d: appointment run published no promises", spec.Kind, workers)
				}
			}
		}
	}
}

// TestMultiDeviceSyncStatsAgree pins the cross-mode stats contract: aside
// from Mode and NullMessages (mode-defined by construction), the coordination
// summary — rounds, engine-windows, simulated advance, stall accounting — is
// identical whichever coordinator computed the fixpoint.
func TestMultiDeviceSyncStatsAgree(t *testing.T) {
	o := fusedOpts(t, 8)
	o.Topo = interconnect.TorusTopo(2, 4, interconnect.DefaultConfig())
	o.ParWorkers = 2
	stats := func(mode sim.ClusterSyncMode) sim.ClusterStats {
		po := o
		po.SyncMode = mode
		var st sim.ClusterStats
		po.ClusterStats = &st
		if _, err := RunFusedGEMMRSMultiDevice(po); err != nil {
			t.Fatal(err)
		}
		return st
	}
	win := stats(sim.SyncWindowed)
	app := stats(sim.SyncAppointment)
	if app.NullMessages == 0 {
		t.Error("appointment run counted no null messages")
	}
	win.Mode, app.Mode = 0, 0
	win.NullMessages, app.NullMessages = 0, 0
	if win != app {
		t.Errorf("coordination stats diverged across modes\nwindowed:    %+v\nappointment: %+v", win, app)
	}
}

// TestMultiDeviceAppointmentStress reruns the full-model stress under forced
// appointment mode with maximal workers — the -race exercise for the
// promise-refresh path through the whole t3core datapath.
func TestMultiDeviceAppointmentStress(t *testing.T) {
	o := parOptions(t, 512, 512, 128, 8)
	o.Topo = interconnect.TorusTopo(2, 4, interconnect.DefaultConfig())
	want, err := RunFusedGEMMRSMultiDevice(o)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		po := o
		po.ParWorkers = 8
		po.SyncMode = sim.SyncAppointment
		got, err := RunFusedGEMMRSMultiDevice(po)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rep=%d: appointment stress run diverged", rep)
		}
	}
}
