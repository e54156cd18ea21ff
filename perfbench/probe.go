package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a VM on a shared machine. Its speed
// moves by up to a factor of two over seconds to minutes as other tenants
// load the memory system, and the simulator, which spends half its time in
// allocation and GC, follows it; medians within a 30 s run cannot remove
// changes that last minutes. So every timed repetition steps Engine.Run one
// simulated second at a time and runs a fixed probe before each step. The
// probe does what the simulator's hot path does to memory: it takes fresh
// 64-byte records in turn from a ring, as an allocator hands out memory,
// links them into a list and indexes them in a small open-addressed table.
// Its records live outside the Go heap, so it neither changes the
// simulation's GC pacing nor depends on any repository code: a change to
// the simulator moves the simulation's time but not the probe's.
//
// A repetition's host speed is probeRefNS over its mean probe time, and the
// timed run reports host times multiplied by it: seconds at the speed at
// which one probe takes probeRefNS. Raw times are printed alongside. Do not
// change the probe or its constants: that rescales every host time.
const (
	probeRecords = 1000     // records one probe takes
	probeRingMB  = 16       // ring size; larger than L2, so records are fetched from L3 or memory
	probeRefNS   = 50_000.0 // one probe's time at reference speed (a quiet 2-vCPU Xeon VM)
	probeTable   = 1024     // open-addressed index slots (a power of two)
	probeKeys    = 512      // distinct keys indexed
)

type hostProbe struct {
	rec   []uint64 // 8 words per record
	table []int32  // record index, or -1
	pos   int      // next record to take
	sink  uint64
}

// newHostProbe maps the probe's memory outside the Go heap and touches all
// of it, so that its resident size is fixed from the start.
func newHostProbe() (*hostProbe, error) {
	ring, err := syscall.Mmap(-1, 0, probeRingMB<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	table, err := syscall.Mmap(-1, 0, probeTable*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		syscall.Munmap(ring)
		return nil, fmt.Errorf("probe: %w", err)
	}
	p := &hostProbe{
		rec:   unsafe.Slice((*uint64)(unsafe.Pointer(&ring[0])), len(ring)/8),
		table: unsafe.Slice((*int32)(unsafe.Pointer(&table[0])), probeTable),
	}
	for i := range p.rec {
		p.rec[i] = 0
	}
	return p, nil
}

// residentMB is the probe's share of the process's resident set.
func (p *hostProbe) residentMB() float64 {
	if p == nil {
		return 0
	}
	return float64(len(p.rec)*8+len(p.table)*4) / (1 << 20)
}

// measure runs the probe once and returns its duration.
func (p *hostProbe) measure() time.Duration {
	t0 := time.Now()
	nrec := len(p.rec) / 8
	for i := range p.table {
		p.table[i] = -1
	}
	x := uint64(1)
	head := -1
	for i := 0; i < probeRecords; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r := p.pos
		if p.pos++; p.pos == nrec {
			p.pos = 0
		}
		w := p.rec[r*8 : r*8+8]
		clear(w)
		key := x % probeKeys
		w[0], w[1], w[2] = x, uint64(int64(head)), key
		head = r
		k := key
		for p.table[k] >= 0 && p.rec[int(p.table[k])*8+2] != key {
			k = (k + 1) & (probeTable - 1)
		}
		p.table[k] = int32(r)
		if i%3 == 0 {
			// Retire a key, as a map delete would.
			d := (x >> 9) % probeKeys
			for j := d; p.table[j] >= 0; j = (j + 1) & (probeTable - 1) {
				if p.rec[int(p.table[j])*8+2] == d {
					p.rec[int(p.table[j])*8+2] = 1 << 40
					break
				}
			}
		}
	}
	var acc uint64
	for r := head; r >= 0; r = int(int64(p.rec[r*8+1])) {
		acc += p.rec[r*8]
	}
	p.sink += acc
	return time.Since(t0)
}
