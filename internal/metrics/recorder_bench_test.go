package metrics

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/sim"
)

// BenchmarkRecorderSample measures one energy-recorder tick on a
// 10,000-PM fleet (the scale-up point) where half the machines carry
// load and a tenth are powered off: a single walk of the fleet for
// power, per-resource utilization and the powered-on count. The engine
// runs its pending flush first, as it does before every event, so the
// timed ticks, like a real recorder tick, find no machine queued for a
// solve.
func BenchmarkRecorderSample(b *testing.B) {
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 1, nil)
	for i, pm := range c.AddPMs("pm", 10000) {
		switch {
		case i%10 == 9:
			if err := pm.PowerOff(); err != nil {
				b.Fatal(err)
			}
		case i%2 == 0:
			if err := pm.Start(&cluster.Consumer{
				Name:   fmt.Sprintf("load-%d", i),
				Demand: resource.NewVector(float64(i%4)*0.5, 512, 20, 10),
				Work:   cluster.OpenEnded,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	engine.RunUntil(engine.Now())
	r := NewRecorder(c, time.Second, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.sample(time.Duration(i+1) * time.Second)
	}
}
