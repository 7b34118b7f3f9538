package core

import (
	"math"
	"testing"

	"wisync/internal/config"
)

func TestBMFetchAddF64(t *testing.T) {
	m := NewMachine(config.New(config.WiSync, 16))
	addr, _ := m.BM.AllocBare(1, false)
	m.BM.Poke(addr, math.Float64bits(1.5))
	m.SpawnAllTasks(func(th *Task) {
		th.BMFetchAddF64(addr, 0.25, func(float64) { th.Finish() })
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got := math.Float64frombits(m.BM.Peek(addr))
	want := 1.5 + 16*0.25
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestBMFetchAddF64ReturnsPrior(t *testing.T) {
	m := NewMachine(config.New(config.WiSync, 4))
	addr, _ := m.BM.AllocBare(1, false)
	m.SpawnTask("t", 0, 1, func(th *Task) {
		th.BMFetchAddF64(addr, 2.5, func(v float64) {
			if v != 0 {
				t.Errorf("first fetch&addF = %v, want 0", v)
			}
			th.BMFetchAddF64(addr, 1.0, func(v float64) {
				if v != 2.5 {
					t.Errorf("second fetch&addF = %v, want 2.5", v)
				}
				th.Finish()
			})
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
