package main

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	madeleine "madgo"
	"madgo/internal/agg"
	"madgo/internal/bench"
	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/flow"
	"madgo/internal/fluid"
	"madgo/internal/health"
	"madgo/internal/hw"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Layer microbenchmarks: each times only calls into one layer's exported
// API, at a fixed operation count, and reports the median of layerReps
// repetitions on the host clock. They do not depend on the workload.

const layerReps = 5

// The sinks keep results alive so the compiler cannot drop the measured
// calls; they are typed so that storing into them allocates nothing.
var (
	sinkU64    uint64
	sinkInt    int
	sinkBool   bool
	sinkBudget flight.AggregateBudget
)

// measure runs prepare (untimed) then the function it returns (timed),
// layerReps times, and returns ns and allocations per operation.
func measure(ops int, prepare func() (run func())) (ns, allocs []float64) {
	for rep := 0; rep < layerReps; rep++ {
		run := prepare()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return ns, allocs
}

// inSim is measure for code that must run inside a simulated process: body
// receives a fresh simulation to spawn into; Run is what is timed.
func inSim(ops int, body func(sim *vtime.Sim)) (ns, allocs []float64) {
	return measure(ops, func() func() {
		sim := vtime.New()
		body(sim)
		return func() {
			if err := sim.Run(); err != nil {
				panic(err)
			}
		}
	})
}

func runLayerBenchmarks() map[string]value {
	out := map[string]value{}
	host := func(name string, xs []float64) { out[name] = overTrials(name, xs) }

	// vtime: what one process wake, one callback event and one spawn cost.
	wake := func(procs, sleeps int) (ns, allocs []float64) {
		return inSim(procs*sleeps, func(sim *vtime.Sim) {
			for i := 0; i < procs; i++ {
				sim.Spawn("p", func(p *vtime.Proc) {
					for k := 0; k < sleeps; k++ {
						p.Sleep(vtime.Microsecond)
					}
				})
			}
		})
	}
	ns, allocs := wake(2, 50000)
	host("vtime.proc_wake_ns_2procs", ns)
	host("vtime.proc_wake_allocs", allocs)
	ns, _ = wake(1024, 100)
	host("vtime.proc_wake_ns_1024procs", ns)
	const chain = 500000
	ns, _ = inSim(chain, func(sim *vtime.Sim) {
		left := chain
		var step func()
		step = func() {
			if left--; left > 0 {
				sim.After(vtime.Microsecond, step)
			}
		}
		sim.After(vtime.Microsecond, step)
	})
	host("vtime.callback_event_ns", ns)
	ns, _ = inSim(10000, func(sim *vtime.Sim) {
		sim.Spawn("parent", func(p *vtime.Proc) {
			for i := 0; i < 10000-1; i++ {
				sim.Spawn("child", func(*vtime.Proc) {})
			}
		})
	})
	host("vtime.spawn_ns", ns)

	// vsync: one value handed from one process to another.
	const handoffs = 50000
	ns, _ = inSim(handoffs, func(sim *vtime.Sim) {
		ch := vsync.NewChan[int]("handoff", 1)
		sim.Spawn("tx", func(p *vtime.Proc) {
			for i := 0; i < handoffs; i++ {
				ch.Send(p, i)
			}
		})
		sim.Spawn("rx", func(p *vtime.Proc) {
			for i := 0; i < handoffs; i++ {
				ch.Recv(p)
			}
		})
	})
	host("vsync.chan_handoff_ns", ns)

	// fluid: one blocking transfer, alone and among eight on a shared bus
	// whose policy slows PIO under DMA.
	transfers := func(flows, each int) (ns, allocs []float64) {
		return inSim(flows*each, func(sim *vtime.Sim) {
			eng := fluid.NewEngine(sim)
			bus := eng.NewResource("pci", 90*hw.MB, hw.DefaultPCI().Policy())
			for f := 0; f < flows; f++ {
				class := fluid.ClassDMA
				if f%2 == 1 {
					class = fluid.ClassPIO
				}
				spec := fluid.Spec{Name: "t", Class: class, Demand: 60 * hw.MB, Bytes: 4096, Route: fluid.Path(class, bus)}
				sim.Spawn("flow", func(p *vtime.Proc) {
					for k := 0; k < each; k++ {
						eng.Transfer(p, spec)
					}
				})
			}
		})
	}
	ns, allocs = transfers(1, 20000)
	host("fluid.transfer_ns_1flow", ns)
	host("fluid.transfer_allocs", allocs)
	ns, _ = transfers(8, 2500)
	host("fluid.transfer_ns_8flows", ns)

	// hw: one accounted memcpy of 64 bytes.
	const copies = 50000
	ns, _ = inSim(copies, func(sim *vtime.Sim) {
		h := hw.NewPlatform(sim).NewHost("h", hw.DefaultCPU(), hw.DefaultPCI())
		sim.Spawn("copier", func(p *vtime.Proc) {
			for i := 0; i < copies; i++ {
				h.Memcpy(p, 64)
			}
		})
	})
	host("hw.memcpy_call_ns", ns)

	// mad: one plain-channel message, pack to unpack, on a direct link.
	direct := func(protocol string, size, msgs int) (ns, allocs []float64) {
		return measure(msgs, func() func() {
			sys, err := madeleine.NewSystem(fmt.Sprintf("network n %s\nnode x n\nnode y n\n", protocol), madeleine.WithPaperFidelity())
			if err != nil {
				panic(err)
			}
			out, in := make([]byte, size), make([]byte, size)
			x, y := sys.At("x"), sys.At("y")
			sys.Spawn("tx", func(p *madeleine.Proc) {
				for i := 0; i < msgs; i++ {
					px := x.BeginPacking(p, "y")
					px.Pack(p, out, madeleine.SendCheaper, madeleine.ReceiveCheaper)
					px.EndPacking(p)
				}
			})
			sys.Spawn("rx", func(p *madeleine.Proc) {
				for i := 0; i < msgs; i++ {
					u := y.BeginUnpacking(p)
					u.Unpack(p, in, madeleine.SendCheaper, madeleine.ReceiveCheaper)
					u.EndUnpacking(p)
				}
			})
			return func() {
				if err := sys.Run(); err != nil {
					panic(err)
				}
			}
		})
	}
	ns, allocs = direct("sci", 64, 5000)
	host("mad.msg_ns_sci_64B", ns)
	host("mad.msg_allocs_sci_64B", allocs)
	ns, allocs = direct("myrinet", 32*kib, 2000)
	host("mad.msg_ns_myrinet_32KB", ns)
	host("mad.msg_allocs_myrinet_32KB", allocs)
	for _, protocol := range []string{"sci", "myrinet"} {
		d := bench.NewRawPair(protocol).OneWaySeries([]int{16 * kib})[0]
		name := "drivers." + protocol + "_virtual_MBps_16KB"
		out[name] = exact(name, 16*kib/d.Seconds()/1e6)
	}

	// agg: building and reading a full 32 KiB frame of 64-byte messages.
	block := []agg.Block{{Data: make([]byte, 64)}}
	perFrame := (32*kib - agg.HeaderLen) / agg.SubSize(block)
	const frames = 200
	var frame []byte
	ns, _ = measure(frames*perFrame, func() func() {
		b := agg.NewBuilder(32 * kib)
		return func() {
			for f := 0; f < frames; f++ {
				b.Reset()
				for i := 0; i < perFrame; i++ {
					b.Add(uint64(i), block)
				}
				frame = b.Finish()
			}
		}
	})
	host("agg.build_ns_per_sub_64B", ns)
	ns, _ = measure(frames*perFrame, func() func() {
		return func() {
			for f := 0; f < frames; f++ {
				rd := agg.MustReader(frame)
				for {
					sub, ok := rd.Next()
					if !ok {
						break
					}
					sinkU64 = sub.ID
				}
			}
		}
	})
	host("agg.read_ns_per_sub_64B", ns)
	_, allocs = measure(frames, func() func() {
		b := agg.NewBuilder(32 * kib)
		return func() {
			for f := 0; f < frames; f++ {
				b.Add(1, block)
				b.Finish()
				rd := agg.MustReader(b.Detach())
				_, sinkBool = rd.Next()
			}
		}
	})
	host("agg.allocs_per_frame", allocs)

	// flow: one item through the DRR scheduler, and one grant through its
	// codec.
	drr := func(flows int) (ns, allocs []float64) {
		const items = 200000
		keys := make([]string, flows)
		for i := range keys {
			keys[i] = "s" + strconv.Itoa(i)
		}
		return measure(items, func() func() {
			d := flow.NewDRR[int](32 * kib)
			return func() {
				for i := 0; i < items; i += flows {
					for _, k := range keys {
						d.Push(k, i)
					}
					for range keys {
						k, item, _ := d.Pop()
						d.Charge(k, 16*kib)
						sinkInt = item
					}
				}
			}
		})
	}
	ns, allocs = drr(1)
	host("flow.drr_ns_per_item_1flow", ns)
	host("flow.drr_allocs_per_item", allocs)
	ns, _ = drr(64)
	host("flow.drr_ns_per_item_64flows", ns)
	const codecOps = 200000
	ns, _ = measure(codecOps, func() func() {
		buf := make([]byte, 0, flow.GrantLen)
		return func() {
			for i := 0; i < codecOps; i++ {
				buf = flow.AppendGrant(buf[:0], flow.Grant{Gateway: 1, Upstream: 2, Credits: 3, Seq: uint32(i)})
				_, sinkBool = flow.DecodeGrant(buf)
			}
		}
	})
	host("flow.grant_codec_ns", ns)

	// health: one passive success report on the 34-node topology, and one
	// probe through its codec.
	lossy, err := generate("prod_lossy_mix", 1, 1000)
	if err != nil {
		panic(err)
	}
	tp, err := topo.Parse(lossy.variants[0].topo)
	if err != nil {
		panic(err)
	}
	ns, _ = measure(codecOps, func() func() {
		sim := vtime.New()
		mon := health.NewMonitor(health.DefaultConfig(), tp, nil, nil, sim.After, sim.Now)
		edge := route.Edge{From: "a00", To: "gw1", Network: "sci0"}
		return func() {
			for i := 0; i < codecOps; i++ {
				mon.ReportSuccess(edge, 100*vtime.Microsecond, vtime.Time(i))
			}
		}
	})
	host("health.report_ns", ns)
	ns, _ = measure(codecOps, func() func() {
		return func() {
			for i := 0; i < codecOps; i++ {
				_, sinkBool = health.DecodeProbe(health.EncodeProbe(health.Probe{Kind: health.ProbeReq, Seq: uint64(i)}))
			}
		}
	})
	host("health.probe_codec_ns", ns)

	// fault: one verdict under a 1% drop rule.
	ns, _ = measure(codecOps, func() func() {
		inj := fault.NewInjector(fault.NewPlan(1).Drop("*", 0.01), nil)
		return func() {
			for i := 0; i < codecOps; i++ {
				_, sinkInt = inj.Packet("sci0", "a", "b", vtime.Time(i), 1024)
			}
		}
	})
	host("fault.verdict_ns", ns)

	// obs, trace, flight: one write each, armed and disarmed.
	const writes = 100000
	add := func(reg *obs.Registry) (ns, allocs []float64) {
		return measure(writes, func() func() {
			return func() {
				for i := 0; i < writes; i++ {
					reg.Add("madgo_link_sends_total", obs.Labels{"net": "sci0", "node": "a"}, 1)
				}
			}
		})
	}
	ns, allocs = add(obs.New())
	host("obs.add_ns_armed", ns)
	host("obs.add_allocs_armed", allocs)
	ns, _ = add(nil)
	host("obs.add_ns_nil", ns)
	ns, _ = measure(writes, func() func() {
		reg := obs.New()
		return func() {
			for i := 0; i < writes; i++ {
				reg.Observe("madgo_link_send_seconds", obs.Labels{"net": "sci0", "node": "a"}, 1e-6*float64(i%100+1))
			}
		}
	})
	host("obs.observe_ns_armed", ns)
	ns, _ = measure(writes, func() func() {
		reg := obs.New()
		return func() {
			for i := 0; i < writes; i++ {
				reg.RecordHop(uint64(i/8+1), vtime.Time(i), "gw", "relay", "frag", 1024)
			}
		}
	})
	host("obs.recordhop_ns", ns)
	ns, _ = measure(1, func() func() {
		// About the series count a traced prod_lossy_mix run registers.
		reg := obs.New()
		for i := 0; i < 650; i++ {
			labels := obs.Labels{"net": "sci0", "node": "n" + strconv.Itoa(i)}
			reg.Add("madgo_link_sends_total", labels, float64(i))
			reg.Observe("madgo_link_send_seconds", labels, 1e-6*float64(i+1))
		}
		return func() { reg.WritePrometheus(io.Discard) }
	})
	host("obs.prometheus_write_ms", scaleBy(ns, 1e-6))
	ns, _ = measure(writes, func() func() {
		tr := trace.New()
		return func() {
			for i := 0; i < writes; i++ {
				tr.Record("gw:recv:sci0", "recv", 1024, vtime.Time(i), vtime.Time(i+1))
			}
		}
	})
	host("trace.record_ns", ns)
	ns, allocs = measure(writes, func() func() {
		ring := flight.NewRecorder(0).Ring("gw")
		return func() {
			for i := 0; i < writes; i++ {
				ring.Record(flight.KindSend, vtime.Time(i), vtime.Microsecond, uint64(i), 1024, "sci0")
			}
		}
	})
	host("flight.record_ns", ns)
	host("flight.record_allocs", allocs)
	const analyzed = 4000
	ns, _ = measure(analyzed, func() func() {
		kinds := []flight.Kind{flight.KindPack, flight.KindSend, flight.KindRecv, flight.KindSwap,
			flight.KindSend, flight.KindRecv, flight.KindQueueWait, flight.KindStall}
		events := make([]flight.Event, 0, analyzed*len(kinds))
		for m := 1; m <= analyzed; m++ {
			for k, kind := range kinds {
				events = append(events, flight.Event{At: vtime.Time(m*100 + k*10), Dur: 5, Kind: kind, Msg: uint64(m), Node: "gw"})
			}
		}
		return func() {
			var budgets []flight.Budget
			for id, evs := range flight.IndexByMessage(events) {
				budgets = append(budgets, flight.AnalyzeMessage(id, nil, evs))
			}
			sinkBudget = flight.Aggregate(budgets)
		}
	})
	host("flight.analyze_us_per_msg", scaleBy(ns, 1e-3))

	collectives(out)
	paperAnchors(out)
	return out
}

// collectives times a broadcast, an allreduce and a barrier among eight
// members of the fan-out topology: virtual µs until the last member returns,
// and the host cost of simulating the broadcast.
func collectives(out map[string]value) {
	fan, err := generate("bcast_fanout8", 1, 1000)
	if err != nil {
		panic(err)
	}
	members := []string{"root", "c1", "c2", "c3", "c4", "l1", "l2", "l3"}
	run := func(op func(c *madeleine.Comm, p *madeleine.Proc)) (virtualUS float64, hostSec float64) {
		sys, err := madeleine.NewSystem(fan.variants[0].topo, madeleine.WithPaperFidelity())
		if err != nil {
			panic(err)
		}
		var last madeleine.Time
		for _, m := range members {
			comm, err := sys.CommAt(m, members...)
			if err != nil {
				panic(err)
			}
			sys.Spawn("member:"+m, func(p *madeleine.Proc) {
				op(comm, p)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		t0 := time.Now()
		if err := sys.Run(); err != nil {
			panic(err)
		}
		return last.Sub(0).Microseconds(), time.Since(t0).Seconds()
	}
	var hostUS []float64
	var virtual float64
	for rep := 0; rep < layerReps; rep++ {
		v, h := run(func(c *madeleine.Comm, p *madeleine.Proc) { c.Broadcast(p, 0, make([]byte, 64*kib)) })
		virtual, hostUS = v, append(hostUS, h*1e6)
	}
	out["coll.broadcast_virtual_us_8x64KB"] = exact("coll.broadcast_virtual_us_8x64KB", virtual)
	out["coll.broadcast_host_us_8x64KB"] = overTrials("coll.broadcast_host_us_8x64KB", hostUS)
	virtual, _ = run(func(c *madeleine.Comm, p *madeleine.Proc) { c.AllReduce(p, make([]float64, 1024), madeleine.OpSum) })
	out["coll.allreduce_virtual_us_8x1K"] = exact("coll.allreduce_virtual_us_8x1K", virtual)
	virtual, _ = run(func(c *madeleine.Comm, p *madeleine.Proc) { c.Barrier(p) })
	out["coll.barrier_virtual_us_8"] = exact("coll.barrier_virtual_us_8", virtual)
}

// paperAnchors reruns the experiments EXPERIMENTS.md archives, through the
// bench registry: numbers that no host-only change may move.
func paperAnchors(out map[string]value) {
	lookup := func(id string) *bench.Experiment {
		e, ok := bench.Lookup(id)
		if !ok {
			panic("benchmark: bench experiment " + id + " is not registered")
		}
		return e
	}
	quick := bench.Options{Quick: true}
	var fig6 *bench.Result
	ns, allocs := measure(1, func() func() {
		return func() { fig6 = lookup("fig6").Run(quick) }
	})
	out["bench.fig6_quick_host_ms"] = overTrials("bench.fig6_quick_host_ms", scaleBy(ns, 1e-6))
	out["bench.fig6_quick_allocs"] = overTrials("bench.fig6_quick_allocs", allocs)
	put := func(name string, v float64) { out[name] = exact(name, v) }
	put("bench.fig6_virtual_MBps_1MB_32KB", fig6.YAt("paquet=32KB", mib))
	put("bench.fig7_virtual_MBps_1MB_32KB", lookup("fig7").Run(quick).YAt("paquet=32KB", mib))
	put("bench.fig6_peak_virtual_MBps", lookup("fig6").Run(bench.Options{}).MaxY(""))
	// t2 reports the §3.3.1 residual, period minus the longer step, as a
	// formatted duration in the fourth row of its table.
	t2 := lookup("t2").Run(quick)
	us, ok := 0.0, false
	if len(t2.Table) > 3 && len(t2.Table[3]) > 1 {
		us, ok = parseVirtualUS(t2.Table[3][1])
	}
	if !ok {
		panic("benchmark: bench experiment t2 no longer reports the swap overhead in row 4")
	}
	put("bench.swap_overhead_virtual_us", us)
}

func scaleBy(xs []float64, k float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * k
	}
	return ys
}

// parseVirtualUS reads a vtime.Duration as its String method prints it
// ("40µs", "1.536ms") back into µs.
func parseVirtualUS(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		us     float64
	}{{"ns", 1e-3}, {"µs", 1}, {"ms", 1e3}, {"s", 1e6}} {
		if num, found := strings.CutSuffix(s, u.suffix); found {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.us, err == nil
		}
	}
	return 0, false
}
