package core

import (
	"strings"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/eventloop"
)

// cadenceJob submits one small map/shuffle/reduce job at `at` and returns
// it; every task fits the test cluster's memory.
func cadenceJob(t *testing.T, sys *System, at eventloop.Time) *Job {
	t.Helper()
	j, err := sys.Submit(JobSpec{Name: "cadence", Graph: shuffleJob(4, 2, 8e6), MemEstimate: 1e6}, at)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// splitStages returns a finished shuffleJob's map tasks and reduce tasks.
func splitStages(j *Job) (maps, reduces []*dag.Task) {
	for _, task := range j.Plan.Tasks {
		if strings.Contains(task.Monotasks[0].OpName(), "map") {
			maps = append(maps, task)
		} else {
			reduces = append(reduces, task)
		}
	}
	return maps, reduces
}

// TestPlaceOnArrivalCadence: with place-on-arrival on, a job's first tasks
// are placed in its admission instant, and the next stage's tasks in the
// instant the previous stage's last task completes — neither waits for a
// tick.
func TestPlaceOnArrivalCadence(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{})
	sys.EnablePlaceOnArrival()
	j := cadenceJob(t, sys, eventloop.Time(3*eventloop.Millisecond))
	loop.Run()
	if !sys.AllDone() {
		t.Fatal("job did not complete")
	}
	maps, reduces := splitStages(j)
	if len(maps) == 0 || len(reduces) == 0 {
		t.Fatalf("got %d map and %d reduce tasks", len(maps), len(reduces))
	}
	var mapsDone eventloop.Time
	for _, task := range maps {
		if at := j.jm.TaskPlacedAt[task]; at != j.Admitted {
			t.Errorf("map task %d placed at %v, want admission instant %v", task.ID, at, j.Admitted)
		}
		mapsDone = max(mapsDone, j.jm.TaskDoneAt[task])
	}
	for _, task := range reduces {
		if at := j.jm.TaskPlacedAt[task]; at != mapsDone {
			t.Errorf("reduce task %d placed at %v, want map stage completion %v", task.ID, at, mapsDone)
		}
	}
}

// TestPlaceOnArrivalAtCompletion: a task waiting for memory is placed in
// the instant a completing task frees it, not at the next tick.
func TestPlaceOnArrivalAtCompletion(t *testing.T) {
	loop, clus := testCluster(1)
	sys := NewSystem(loop, clus, Config{})
	sys.EnablePlaceOnArrival()
	mem := clus.Machines[0].Mem
	// Room for two map tasks (2.5e5 each) or one reduce task (5e5).
	mem.MustAlloc(mem.Capacity() - 6e5)
	j := cadenceJob(t, sys, 0)
	loop.RunUntil(eventloop.Time(10 * eventloop.Second))
	if !sys.AllDone() {
		t.Fatal("job did not complete")
	}
	done := map[eventloop.Time]bool{}
	for _, at := range j.jm.TaskDoneAt {
		done[at] = true
	}
	waited := 0
	for _, task := range j.Plan.Tasks {
		at := j.jm.TaskPlacedAt[task]
		if at != j.Admitted {
			waited++
			if !done[at] {
				t.Errorf("task %d placed at %v, not at a completion instant", task.ID, at)
			}
		}
	}
	if waited == 0 {
		t.Fatal("every task fit at admission; the memory hold does not exercise completion arming")
	}
}

// TestPlaceOnArrivalRetriesMemoryGate: a task the arrival pass cannot place
// (the memory gate) is placed by the SchedInterval retry once memory frees,
// even though no event re-arms a pass.
func TestPlaceOnArrivalRetriesMemoryGate(t *testing.T) {
	loop, clus := testCluster(1)
	sys := NewSystem(loop, clus, Config{})
	sys.EnablePlaceOnArrival()
	mem := clus.Machines[0].Mem
	hog := mem.Capacity()
	mem.MustAlloc(hog)
	si := sys.Cfg.SchedInterval
	loop.At(eventloop.Time(5*si/2), func() { mem.FreeAlloc(hog) })
	j := cadenceJob(t, sys, 0)
	loop.Run()
	if !sys.AllDone() {
		t.Fatal("job did not complete")
	}
	maps, _ := splitStages(j)
	want := j.Admitted + eventloop.Time(3*si) // first tick after the free
	for _, task := range maps {
		if at := j.jm.TaskPlacedAt[task]; at != want {
			t.Errorf("map task %d placed at %v, want retry tick %v", task.ID, at, want)
		}
	}
}

// TestPeriodicCadenceByDefault pins the simulator's behaviour: without
// place-on-arrival a job's first tasks wait for the first tick, one
// SchedInterval after admission.
func TestPeriodicCadenceByDefault(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{})
	j := cadenceJob(t, sys, eventloop.Time(3*eventloop.Millisecond))
	loop.Run()
	if !sys.AllDone() {
		t.Fatal("job did not complete")
	}
	maps, _ := splitStages(j)
	want := j.Admitted + eventloop.Time(sys.Cfg.SchedInterval)
	for _, task := range maps {
		if at := j.jm.TaskPlacedAt[task]; at != want {
			t.Errorf("map task %d placed at %v, want %v", task.ID, at, want)
		}
	}
}

// TestArrivalPassAllocsZero: arming a pass and running it over a standing
// pending pool allocates nothing.
func TestArrivalPassAllocsZero(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{})
	sys.EnablePlaceOnArrival()
	for _, m := range clus.Machines {
		m.Mem.MustAlloc(m.Mem.Capacity()) // hold the pool pending
	}
	cadenceJob(t, sys, 0)
	loop.RunUntil(0)
	if len(sys.Sched.pending) == 0 {
		t.Fatal("no pending tasks; the pass has nothing to do")
	}
	before := loop.Executed
	allocs := testing.AllocsPerRun(100, func() {
		sys.Sched.armPass()
		sys.Sched.armPass() // coalesces into the first
		loop.RunUntil(loop.Now())
	})
	if allocs != 0 {
		t.Errorf("arm + pass allocated %v times per run, want 0", allocs)
	}
	if ran := loop.Executed - before; ran != 101 { // AllocsPerRun warms up once
		t.Errorf("ran %d passes over 101 runs, want one each", ran)
	}
}
