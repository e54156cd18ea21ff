package chaos

import (
	"testing"
	"time"

	"dcm/internal/bus"
	"dcm/internal/cloud"
	"dcm/internal/monitor"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/runner"
	"dcm/internal/sim"
)

// denseSchedule builds a 1000-fault schedule cycling through the window
// kinds (short overlapping windows, spread over 10 simulated minutes) —
// the engine-throughput stress case.
func denseSchedule() Schedule {
	s := Schedule{Name: "dense"}
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * 500 * time.Millisecond
		switch i % 4 {
		case 0:
			s.Faults = append(s.Faults, Fault{Kind: KindSlowBoot, At: at, Duration: 2 * time.Second, Factor: 2})
		case 1:
			s.Faults = append(s.Faults, Fault{Kind: KindDegrade, At: at, Duration: 2 * time.Second, Tier: ntier.TierApp, Factor: 1.5})
		case 2:
			s.Faults = append(s.Faults, Fault{Kind: KindConnLeak, At: at, Duration: 2 * time.Second, Count: 1})
		case 3:
			s.Faults = append(s.Faults, Fault{Kind: KindBlackout, At: at, Duration: 2 * time.Second})
		}
	}
	return s
}

// BenchmarkDenseFaultSchedule measures engine throughput with 1000 faults
// (plus their repair events) in flight over a 10-minute simulated run.
func BenchmarkDenseFaultSchedule(b *testing.B) {
	sched := denseSchedule()
	if err := sched.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var processed uint64
	for i := 0; i < b.N; i++ {
		n, err := denseRun(sched, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		processed += n
	}
	b.ReportMetric(float64(processed)/float64(b.N), "events/op")
}

// denseRun executes one dense-schedule simulation and returns the number
// of engine events processed.
func denseRun(sched Schedule, seed uint64) (uint64, error) {
	eng := sim.NewEngine()
	cfg := ntier.DefaultConfig()
	cfg.AppThreads = 10
	cfg.DBConnsPerApp = 10
	app, err := ntier.New(eng, rng.New(7).Split("app"), cfg)
	if err != nil {
		return 0, err
	}
	hv := cloud.NewHypervisor(eng, 15*time.Second)
	fleet, err := monitor.NewFleet(eng, bus.New(), app.Graph(), time.Second)
	if err != nil {
		return 0, err
	}
	in, err := NewInjector(eng, rng.New(seed), app.Graph(), hv, fleet, sched)
	if err != nil {
		return 0, err
	}
	in.Install()
	if err := eng.Run(10 * time.Minute); err != nil {
		return 0, err
	}
	return eng.Processed(), nil
}

// BenchmarkDenseFaultScheduleParallel runs 8 independent replicas of the
// dense schedule per op through the parallel executor — the wall-clock
// profile of a multi-seed chaos sweep.
func BenchmarkDenseFaultScheduleParallel(b *testing.B) {
	sched := denseSchedule()
	if err := sched.Validate(); err != nil {
		b.Fatal(err)
	}
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	b.ReportAllocs()
	var processed uint64
	for i := 0; i < b.N; i++ {
		counts, err := runner.Map(seeds, 8, func(_ int, seed uint64) (uint64, error) {
			return denseRun(sched, seed)
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range counts {
			processed += n
		}
	}
	b.ReportMetric(float64(processed)/float64(b.N*len(seeds)), "events/run")
}
