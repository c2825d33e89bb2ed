package results

import (
	"encoding/json"
	"os"
	"testing"
)

// fuzzIdentity is the identity FuzzLoad requests: table()'s, stamped
// with a model fingerprint.
func fuzzIdentity() Identity {
	id := table().Identity
	id.Model = "0123456789abcdef"
	return id
}

// FuzzLoad feeds arbitrary bytes to the table decoder along both paths
// bytes arrive by — a file in the local store directory and a fleet
// fabric fetch response — and checks the store's trust contract: no
// panic, and the answer is either a miss or a table that validates and
// carries exactly the requested identity. Any input that decodes to a
// valid table must also survive a Save→Load round trip unchanged.
func FuzzLoad(f *testing.F) {
	good := table()
	good.Identity = fuzzIdentity()
	payload, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendFooter(payload))
	f.Fuzz(func(t *testing.T, data []byte) {
		id := fuzzIdentity()
		check := func(path string, got *IPCTable, ok bool, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: error %v, want a hit or a plain miss", path, err)
			}
			if !ok {
				return
			}
			if verr := got.Validate(); verr != nil {
				t.Fatalf("%s: served an invalid table: %v", path, verr)
			}
			if got.Identity != id {
				t.Fatalf("%s: served identity %+v, want %+v", path, got.Identity, id)
			}
		}

		dir := t.TempDir()
		local, _ := Open(dir)
		if err := os.WriteFile(local.path(id.Key()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := local.Load(id)
		check("local", got, ok, err)

		fabric, _ := Open(t.TempDir())
		fabric.SetFetch(func(key string) ([]byte, bool, error) {
			if key != id.Key() {
				t.Fatalf("fetch of key %q, want %q", key, id.Key())
			}
			return data, true, nil
		})
		got, ok, err = fabric.Load(id)
		check("fabric", got, ok, err)

		tab, valid := decode(data, true)
		if !valid || !validKey(tab.Key()) {
			return
		}
		rt, _ := Open(t.TempDir())
		if err := rt.Save(tab); err != nil {
			t.Fatalf("Save of a valid decoded table: %v", err)
		}
		back, ok, err := rt.Load(tab.Identity)
		if err != nil || !ok {
			t.Fatalf("round trip: ok=%v err=%v", ok, err)
		}
		// Compare encodings: an empty column decodes as an empty slice
		// but is saved as absent, so the reload holds nil.
		before, _ := json.Marshal(tab)
		after, _ := json.Marshal(back)
		if string(after) != string(before) {
			t.Fatalf("round trip:\n got %s\nwant %s", after, before)
		}
	})
}
