package multicore

import (
	"testing"
	"time"
)

// TestFingerprintTracksModel pins the fingerprint's contract: stable for
// one model, and changed by a perturbation of any one input — a core, an
// uncore or a BADCO calibration constant.
func TestFingerprintTracksModel(t *testing.T) {
	start := time.Now()
	base := Fingerprint()
	t.Logf("fingerprint %s in %v", base, time.Since(start))
	if len(base) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex digits", base)
	}
	if again := fingerprint(defaultModelInputs()); again != base {
		t.Fatalf("fingerprint not deterministic: %s then %s", base, again)
	}
	perturb := map[string]func(*modelInputs){
		"core ROB": func(in *modelInputs) { in.core.ROB-- },
		"2-core uncore DRAM latency": func(in *modelInputs) {
			u := in.uncores[2]
			u.DRAMLatency++
			in.uncores[2] = u
		},
		"8-core uncore MSHRs": func(in *modelInputs) {
			u := in.uncores[8]
			u.MSHRs--
			in.uncores[8] = u
		},
		"badco dependency window": func(in *modelInputs) { in.badco.DepWindow++ },
	}
	for name, f := range perturb {
		in := defaultModelInputs()
		f(&in)
		if got := fingerprint(in); got == base {
			t.Errorf("%s: perturbed model kept fingerprint %s", name, got)
		}
	}
}
