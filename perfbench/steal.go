package main

import (
	"os"
	"strconv"
	"strings"
)

// The benchmark's hosts are shared virtual machines: the hypervisor
// runs other guests on the VM's vCPUs while they have work (steal), and
// how much it takes swings with the neighbours' load, in phases that
// outlast a run. Stolen time is not the program's: the kernel already
// leaves it out of the process's CPU time, and the benchmark takes it
// out of its wall-clock figures too. Each timed section's wall time is
// scaled by the share of vCPU time the host served the guest during the
// section,
//
//	served = busy / (busy + steal)
//
// summed over every vCPU from /proc/stat, which is the section's wall
// time on a host that steals nothing when the work is spread evenly
// over the section. The figures as measured, and the served share, go
// to the run's report.

// vmTime is one reading of the VM's CPU accounts in clock ticks: the
// time its vCPUs ran the guest's work (user, nice, system, irq and
// softirq) and the time stolen from them.
type vmTime struct{ busy, steal int64 }

// readVMTime reads /proc/stat; without it (not Linux) nothing is ever
// stolen and every figure stays as measured.
func readVMTime() vmTime {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return vmTime{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return vmTime{}
	}
	field := func(i int) int64 {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		return v
	}
	return vmTime{busy: field(1) + field(2) + field(3) + field(6) + field(7), steal: field(8)}
}

// served returns the share of the vCPU time the guest used between two
// readings that the host served it rather than stole; 1 when nothing
// was stolen.
func served(from, to vmTime) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if steal <= 0 || busy <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}
