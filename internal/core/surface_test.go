package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/hdk"
	"repro/internal/lattice"
	"repro/internal/storage"
)

// pinnedOptions lists, per configuration struct, every exported field in
// declaration order. A new setting — or a deleted one — fails
// TestOptionSurfacePinned until this table is edited with it: each field
// doubles the configurations the tests must cover, so adding one should
// be a visible decision.
var pinnedOptions = map[string][]string{
	"core.Config": {
		"Strategy", "HDK", "QDI", "PruneTruncatedOff", "TopK",
		"ReplicationFactor", "AdmissionWatermark", "DataDir", "Engine",
		"StreamTopK", "AntiEntropyInterval", "ResultCache", "PrefixCache",
		"CacheTTL", "HotKeyThreshold", "SoftReplicas", "SoftReplicaTTL",
		"SoftReplicaInterval",
	},
	"hdk.Config":      {"DFMax", "SMax", "Window", "TruncK"},
	"lattice.Config":  {"PruneTruncated", "MaxResultsPerProbe"},
	"dht.Options":     {"Policy", "SuccListLen"},
	"storage.Options": {"CompactBytes", "Fsync"},
}

// pinnedReachable is the number of values settable through core.Config,
// counting the fields of its nested configuration structs instead of the
// structs themselves.
const pinnedReachable = 24

func exportedFields(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			out = append(out, f.Name)
		}
	}
	return out
}

// reachable counts the settable leaves under t: a field whose type is a
// struct from this repository counts its own fields, any other field
// counts one.
func reachable(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "repro/") {
			n += reachable(f.Type)
			continue
		}
		n++
	}
	return n
}

func TestOptionSurfacePinned(t *testing.T) {
	types := map[string]reflect.Type{
		"core.Config":     reflect.TypeOf(Config{}),
		"hdk.Config":      reflect.TypeOf(hdk.Config{}),
		"lattice.Config":  reflect.TypeOf(lattice.Config{}),
		"dht.Options":     reflect.TypeOf(dht.Options{}),
		"storage.Options": reflect.TypeOf(storage.Options{}),
	}
	for name, typ := range types {
		if got, want := exportedFields(typ), pinnedOptions[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s fields = %v, pinned %v", name, got, want)
		}
	}
	if got := reachable(reflect.TypeOf(Config{})); got != pinnedReachable {
		t.Errorf("%d values settable through core.Config, pinned %d", got, pinnedReachable)
	}
}
