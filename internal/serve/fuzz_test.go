package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzCanonicalize feeds arbitrary JSON submissions, decoded as the
// submit handler decodes them, to canonicalize and checks the front
// door's contract: no panic; every rejection is a 400; an accepted
// request is a fixed point (it re-canonicalizes to itself under the same
// key); and every accepted sampling schedule fits its unit, Warmup +
// Window ≤ Unit, compared without overflow. Seeds live in
// testdata/fuzz/FuzzCanonicalize.
func FuzzCanonicalize(f *testing.F) {
	src := suiteSrc()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		canon, key, err := canonicalize(req, src, testTraceLen)
		if err != nil {
			var se *submitError
			if !errors.As(err, &se) {
				t.Fatalf("rejection %v is not a 400", err)
			}
			return
		}
		again, key2, err := canonicalize(canon, src, testTraceLen)
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", data, err)
		}
		if key2 != key || !reflect.DeepEqual(again, canon) {
			t.Fatalf("not a fixed point: key %q then %q, canon %+v then %+v", key, key2, canon, again)
		}
		var smp *SampleSpec
		switch {
		case canon.Simulate != nil:
			smp = canon.Simulate.Sampling
		case canon.Sweep != nil:
			smp = canon.Sweep.Sampling
		}
		if smp != nil && (smp.Window > smp.Unit || smp.Warmup > smp.Unit-smp.Window) {
			t.Fatalf("accepted an overfull sampling unit %+v", *smp)
		}
	})
}
