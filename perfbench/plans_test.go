package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestOpenLoopLatenessIsTimedFromDue(t *testing.T) {
	const step = 10 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	var dues []time.Time
	// Each send takes 25ms, so from the second job on the generator runs
	// later and later: job i is sent about i*15ms after it was due.
	late := openLoop(start, 4, func(i int) time.Duration { return time.Duration(i) * step }, func(i int, due time.Time) {
		dues = append(dues, due)
		time.Sleep(25 * time.Millisecond)
	})
	for i, l := range late {
		if want := start.Add(time.Duration(i) * step); !dues[i].Equal(want) {
			t.Errorf("job %d: due %v, want %v", i, dues[i], want)
		}
		want := time.Duration(i) * 15 * time.Millisecond
		if l < want-time.Millisecond || l > want+20*time.Millisecond {
			t.Errorf("job %d: %v late, want about %v", i, l, want)
		}
	}
}

func TestMixScheduleShape(t *testing.T) {
	n := mixJobs(3.84, 25)
	if n != 96 {
		t.Fatalf("mixJobs(3.84, 25) = %d, want 96", n)
	}
	history, jobs := mixSchedule(3, n, 25*time.Second)
	if len(history) != mixHistory || len(jobs) != n {
		t.Fatalf("got %d history and %d jobs", len(history), len(jobs))
	}
	shapes := map[string]int{}
	for i, j := range jobs {
		if i > 0 && j.Due < jobs[i-1].Due {
			t.Errorf("job %d is due before job %d", i, i-1)
		}
		if (j.Repeat >= 0) != (i%2 == 1) {
			t.Errorf("job %d: repeat %d, want odd jobs to repeat", i, j.Repeat)
		}
		if j.Repeat >= 0 && history[j.Repeat].Tenant != j.Tenant {
			t.Errorf("job %d repeats another tenant's job", i)
		}
		if j.Repeat < 0 {
			shapes[fmt.Sprint(j.Plan.Cells, j.Plan.Strikes)]++
		}
	}
	for i := 0; i < n; i += 4 {
		beta := 0
		for _, j := range jobs[i : i+4] {
			if j.Tenant == mixTenants[1].Name {
				beta++
			}
		}
		if beta != 1 {
			t.Errorf("block at %d has %d beta jobs, want 1", i, beta)
		}
	}
	for s, c := range shapes {
		if c != n/2/len(mixShapes) {
			t.Errorf("shape %s dealt %d times, want %d", s, c, n/2/len(mixShapes))
		}
	}
	// The same seed gives the same jobs at any window length.
	_, again := mixSchedule(3, 2*n, 50*time.Second)
	for i := range jobs {
		if !reflect.DeepEqual(jobs[i].Plan, again[i].Plan) || jobs[i].Tenant != again[i].Tenant {
			t.Fatalf("job %d differs between window lengths", i)
		}
	}
}

func TestMixHistoryIsSeedIndependent(t *testing.T) {
	n := mixJobs(3.84, 25)
	h1, _ := mixSchedule(1, n, 25*time.Second)
	h2, _ := mixSchedule(2, n, 25*time.Second)
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("the set-up history differs between seeds")
	}
}
