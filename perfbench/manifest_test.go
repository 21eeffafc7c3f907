package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesMetricSets checks that BENCHMARK.json at the
// repository root lists exactly the metrics, in the units, that the
// result line carries.
func TestManifestMatchesMetricSets(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		what   string
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{
		{"end_to_end", manifest.EndToEnd, endToEndUnits},
		{"per_layer", manifest.PerLayer, layerUnits},
	} {
		got := map[string]metric{}
		for _, m := range set.listed {
			got[m.Name] = metric{Value: 1, Unit: m.Unit}
		}
		if len(got) != len(set.listed) {
			t.Errorf("%s lists a metric twice", set.what)
		}
		if err := checkMetricSet(got, set.units); err != nil {
			t.Errorf("%s: %v", set.what, err)
		}
	}
}

func TestCheckMetricSet(t *testing.T) {
	want := map[string]string{"a_ms": "ms", "b": "count"}
	for _, tc := range []struct {
		got map[string]metric
		ok  bool
	}{
		{map[string]metric{"a_ms": {1, "ms"}, "b": {2, "count"}}, true},
		{map[string]metric{"a_ms": {1, "ms"}}, false},
		{map[string]metric{"a_ms": {1, "s"}, "b": {2, "count"}}, false},
		{map[string]metric{"a_ms": {1, "ms"}, "b": {2, "count"}, "c": {3, "ms"}}, false},
	} {
		if err := checkMetricSet(tc.got, want); (err == nil) != tc.ok {
			t.Errorf("checkMetricSet(%v) = %v, want ok %t", tc.got, err, tc.ok)
		}
	}
}
