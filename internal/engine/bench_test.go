package engine

import (
	"fmt"
	"testing"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/tspu"
)

// Aggregate throughput benchmarks, gated by make bench-throughput against
// BENCH_engine.json. Each op is one full batch through the pipeline; the
// headline metric is the custom pps (packets/sec, bigger is better, max
// across samples), which perfstat gates alongside the exact zero-allocation
// budget.

const benchBatch = 512

// benchStream builds the steady-state batch: established-flow data segments
// spread over 16 host pairs and 32 ports, both directions. chRatio of the
// packets are ClientHellos with a non-blocked SNI, so the TLS parse path is
// in the loop without any verdict mutating the packets between iterations.
func benchStream(chRatio float64) ([]*packet.Packet, []netem.Direction) {
	rng := sim.NewRand(42)
	remotes := testRemotes()
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	ch := (&tlsx.ClientHelloSpec{ServerName: "example.org"}).Build()
	pkts := make([]*packet.Packet, 0, benchBatch)
	dirs := make([]netem.Direction, 0, benchBatch)
	for i := 0; i < benchBatch; i++ {
		remote := remotes[i%len(remotes)]
		sport := uint16(20000 + (i/len(remotes))%32)
		switch {
		case rng.Float64() < chRatio:
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 2, 2, ch))
			dirs = append(dirs, netem.AtoB)
		case i%3 == 2:
			pkts = append(pkts, packet.NewTCP(remote, testLocal, 443, sport, packet.FlagsPSHACK, 9, 9, payload))
			dirs = append(dirs, netem.BtoA)
		default:
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 9, 9, payload))
			dirs = append(dirs, netem.AtoB)
		}
	}
	return pkts, dirs
}

func benchDevice(s *sim.Sim, name string, shards int) *tspu.Device {
	d := tspu.NewDevice(tspu.Config{Name: name, Sim: s, LocalDir: netem.AtoB, Shards: shards})
	ctl := tspu.NewController(nil)
	ctl.Register(d)
	ctl.Update(func(p *tspu.Policy) {
		p.SNI1Domains.Add("facebook.com", "twitter.com", "meduza.io")
		p.SNI2Domains.Add("play.google.com")
		p.SNI4Domains.Add("twitter.com", "fbcdn.net")
	})
	return d
}

func benchThroughput(b *testing.B, devices, shards int, chRatio float64) {
	s := sim.New()
	chain := make([]*tspu.Device, devices)
	for i := range chain {
		chain[i] = benchDevice(s, fmt.Sprintf("d%d", i), shards)
	}
	e := New(Config{Sim: s, Devices: chain, BatchSize: benchBatch})
	pkts, dirs := benchStream(chRatio)
	run := func() {
		for i, p := range pkts {
			e.Push(p, dirs[i])
		}
		e.Process()
	}
	for i := 0; i < 8; i++ {
		run() // warm conntrack entries, lane queues, entry pools
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(len(pkts))/secs, "pps")
	}
}

func BenchmarkEngine_Passthrough(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchThroughput(b, 1, shards, 0)
		})
	}
}

func BenchmarkEngine_TLSMix(b *testing.B) {
	benchThroughput(b, 1, 8, 0.1)
}

func BenchmarkEngine_Chain2(b *testing.B) {
	benchThroughput(b, 2, 8, 0)
}
