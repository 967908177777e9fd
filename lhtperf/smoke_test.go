package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"lht"
)

type lhtRecord = lht.Record

// tiny shrinks a workload to a few thousand records so that all three
// run, traced and untraced, in seconds.
func tiny(name string) spec {
	s := specByName(name)
	s.records = 4096
	if s.readSet > 0 {
		s.readSet = 256
	}
	s.setups = min(s.setups, 2)
	return s
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range []string{"lookup", "mixed", "embedded"} {
		t.Run(name, func(t *testing.T) {
			s := tiny(name)
			reps := 1
			if !s.cluster {
				reps = 2
			}
			r, err := s.executeN(context.Background(), 3, 600, reps, true)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			r.print(&out)
			if !r.correct() {
				t.Fatalf("run not correct:\n%s", out.String())
			}
			if r.plain.failed != 0 || r.traced.failed != 0 {
				t.Fatalf("failed ops on a healthy substrate:\n%s", out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Attempted != 2*600*reps {
				t.Fatalf("result %+v", res)
			}
			for _, k := range perLayerNames {
				_, inJSON := res.Metrics[k]
				if !inJSON && !strings.Contains(out.String(), k) {
					t.Errorf("per-layer metric %s neither reported nor printed", k)
				}
			}
			if got := res.Metrics["lht.gets_per_get"].Value; got < 1 {
				t.Errorf("lht.gets_per_get = %v, want >= 1", got)
			}
			if s.cluster && res.Metrics["tcpnet.frames_per_op"].Value <= 0 {
				t.Errorf("no frames seen on a cluster workload")
			}

			// The untraced report carries every end-to-end metric, nonzero.
			out.Reset()
			r.traced = nil
			r.print(&out)
			lines = strings.Split(strings.TrimSpace(out.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			for _, k := range endToEndNames {
				if m, ok := res.Metrics[k]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v", k, m)
				}
			}
		})
	}
}

func TestRangeCheckCatchesWrongAnswers(t *testing.T) {
	s := tiny("mixed")
	d, err := s.build(5, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var o op
	for _, x := range d.schedule {
		if x.kind == opRange && x.must >= 2 {
			o = x
			break
		}
	}
	if o.must < 2 {
		t.Fatal("no range with two surviving keys in the schedule")
	}
	var full []lhtRecord
	for _, r := range d.recs {
		if r.Key >= o.key && r.Key < o.hi && !d.keys[r.Key].deleted {
			full = append(full, r)
		}
	}
	if _, err := d.checkRange(o, full); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	reversed := append([]lhtRecord(nil), full...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	if sorted, err := d.checkRange(o, reversed); err != nil || sorted {
		t.Fatalf("unordered answer: sorted=%v err=%v, want false, nil", sorted, err)
	}
	wrongValue := append([]lhtRecord(nil), full...)
	wrongValue[0].Value = []byte("nope")
	for name, bad := range map[string][]lhtRecord{
		"missing key":   full[1:],
		"duplicate key": append(append([]lhtRecord(nil), full...), full[0]),
		"wrong value":   wrongValue,
		"outside range": append(append([]lhtRecord(nil), full...), lhtRecord{Key: o.hi, Value: nil}),
	} {
		if _, err := d.checkRange(o, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
