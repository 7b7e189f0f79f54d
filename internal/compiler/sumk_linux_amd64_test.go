package compiler

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestVectorGateMatchesCPUInfo: the CPUID gate agrees with the avx2 flag the
// kernel reports, so a test run on this host exercised the path it names.
func TestVectorGateMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		key, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		avx2 := slices.Contains(strings.Fields(flags), "avx2")
		if avx2 != haveVector {
			t.Fatalf("/proc/cpuinfo avx2 %v, CPUID gate %v", avx2, haveVector)
		}
		t.Logf("avx2 %v: opSum runs on sumK %v", avx2, haveVector)
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
