package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
)

// FuzzRead checks the trace decoder, which reads stored .mcbt files: no
// panic; allocation bounded by the input's size, so a header that
// claims billions of ops is rejected before the op slice exists; and an
// accepted trace round-trips through WriteTo and Read. Seeds live in
// testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if _, err := MustGenerate(ioParams(), 64).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		// A mutated input almost never keeps a valid checksum, so the
		// input is also decoded as a payload sealed with its own
		// checksum, which lets the fuzzer reach the op decoder.
		h := fnv.New64a()
		h.Write(data)
		sealed := binary.LittleEndian.AppendUint64(append([]byte(nil), data...), h.Sum64())
		checkRead(t, data)
		checkRead(t, sealed)
	})
}

// checkRead decodes data and checks FuzzRead's invariants.
func checkRead(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	// Read copies the input and decodes at most len/minOpBytes ops of 32
	// bytes each: a few dozen bytes per input byte, plus slack for the
	// name and the error text.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); got > limit {
		t.Fatalf("%d input bytes allocated %d bytes, limit %d", len(data), got, limit)
	}
	if err != nil {
		return
	}
	if len(tr.Ops) > len(data)/minOpBytes {
		t.Fatalf("%d ops decoded from %d bytes", len(tr.Ops), len(data))
	}
	var out bytes.Buffer
	if _, err := tr.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&out)
	if err != nil {
		t.Fatalf("re-reading a written trace: %v", err)
	}
	if back.Name != tr.Name || len(back.Ops) != len(tr.Ops) {
		t.Fatalf("round trip gave %q with %d ops, want %q with %d", back.Name, len(back.Ops), tr.Name, len(tr.Ops))
	}
	for i := range tr.Ops {
		if back.Ops[i] != tr.Ops[i] {
			t.Fatalf("round trip op %d: %+v, want %+v", i, back.Ops[i], tr.Ops[i])
		}
	}
}
