package main

import (
	"strings"
	"testing"
	"time"

	"switchboard/internal/obs/span"
)

// row is one span of a test request: its parent's row index, and its start
// and duration in µs.
type row struct {
	name        string
	parent      int
	start, took int
}

// tree builds a joined request; the first row is the client span.
func tree(rows ...row) *joined {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	j := &joined{}
	for _, r := range rows {
		j.add(span.Record{
			Name:     r.name,
			Start:    t0.Add(time.Duration(r.start) * time.Microsecond),
			Duration: time.Duration(r.took) * time.Microsecond,
		}, r.parent)
	}
	return j
}

// A child that outlives its parent (controller.persist after
// controller.start) is the program's own shape: its time is its own, and
// the layers add up to the client latency.
func TestPartitionChildOutlivesParent(t *testing.T) {
	j := tree(
		row{"loadgen POST /v1/call/start", -1, 0, 100},
		row{"http POST /v1/call/start", 0, 10, 80},
		row{"controller.start", 1, 20, 5},
		row{"controller.persist", 2, 30, 40},
		row{"kv.HSET", 3, 32, 30},
	)
	if err := j.partition(time.Microsecond); err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"unattributed":            20 * time.Microsecond,
		"httpapi":                 35 * time.Microsecond,
		"controller.place":        5 * time.Microsecond,
		"controller.persist_wait": 10 * time.Microsecond,
		"kvstore":                 30 * time.Microsecond,
	}
	for l, d := range want {
		if j.layers[l] != d {
			t.Errorf("layer %s: %v, want %v", l, j.layers[l], d)
		}
	}
}

// Two spans on different branches that overlap count the same time twice,
// as a span joined into the wrong request does: the layers no longer add up
// to the client latency.
func TestPartitionOverlapFails(t *testing.T) {
	j := tree(
		row{"loadgen POST /v1/call/config", -1, 0, 100},
		row{"http POST /v1/call/config", 0, 10, 80},
		row{"controller.freeze", 1, 20, 30},
		row{"controller.persist", 1, 40, 30},
	)
	err := j.partition(time.Microsecond)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping siblings: got %v, want an overlap error", err)
	}
}

// A span that starts before its request was sent was joined wrongly.
func TestPartitionOutsideRequestFails(t *testing.T) {
	j := tree(
		row{"loadgen POST /v1/call/end", -1, 10, 50},
		row{"http POST /v1/call/end", 0, 5, 30},
	)
	if err := j.partition(time.Microsecond); err == nil {
		t.Fatal("span outside its request: got no error")
	}
}
