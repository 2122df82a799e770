package fleet

import (
	"testing"

	"hercules/internal/hw"
	"hercules/internal/model"
)

// BenchmarkCalibrateTable times one quick calibration of the fleet
// replay's models over the small fleet. It prices about 100k CPU
// batches, so its allocations set how often the collector runs, and
// with it the process's peak heap, whenever a tool calibrates on start.
func BenchmarkCalibrateTable(b *testing.B) {
	var ms []*model.Model
	for _, name := range []string{"DLRM-RMC1", "DLRM-RMC2"} {
		m, err := model.ByName(name, model.Prod)
		if err != nil {
			b.Fatal(err)
		}
		ms = append(ms, m)
	}
	servers := hw.SmallFleet().Types
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CalibrateTable(ms, servers, 42); err != nil {
			b.Fatal(err)
		}
	}
}
