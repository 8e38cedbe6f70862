package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geo"
)

var (
	pA = geo.Point{Lat: 41.15, Lon: -8.61}
	pB = geo.Point{Lat: 41.16, Lon: -8.60}
)

func validDriver() Driver {
	return Driver{ID: 1, Source: pA, Dest: pB, Start: 0, End: 3600}
}

func validTask() Task {
	return Task{ID: 1, Publish: 0, Source: pA, Dest: pB,
		StartBy: 600, EndBy: 1800, Price: 5, WTP: 7}
}

func TestDriverValidate(t *testing.T) {
	if err := validDriver().Validate(); err != nil {
		t.Fatalf("valid driver rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Driver)
	}{
		{"bad source", func(d *Driver) { d.Source.Lat = 100 }},
		{"bad dest", func(d *Driver) { d.Dest.Lon = -999 }},
		{"start after end", func(d *Driver) { d.Start = d.End + 1 }},
		{"start equals end", func(d *Driver) { d.Start = d.End }},
		{"negative speed", func(d *Driver) { d.SpeedKmh = -5 }},
		// NaN fails every comparison, so a "reject if a >= b" check
		// waves it through; ±Inf is ordered but not a time.
		{"NaN start", func(d *Driver) { d.Start = math.NaN() }},
		{"NaN end", func(d *Driver) { d.End = math.NaN() }},
		{"-Inf start", func(d *Driver) { d.Start = math.Inf(-1) }},
		{"+Inf end", func(d *Driver) { d.End = math.Inf(1) }},
		{"NaN speed", func(d *Driver) { d.SpeedKmh = math.NaN() }},
		{"+Inf speed", func(d *Driver) { d.SpeedKmh = math.Inf(1) }},
	}
	for _, tc := range cases {
		d := validDriver()
		tc.mut(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestDriverAccessors(t *testing.T) {
	d := validDriver()
	if !d.IsCommuter() {
		t.Error("distinct endpoints should be the hitchhiking model")
	}
	d.Dest = d.Source
	if d.IsCommuter() {
		t.Error("equal endpoints should be the home-work-home model")
	}
	if got := d.WorkingSeconds(); got != 3600 {
		t.Errorf("WorkingSeconds = %g", got)
	}
}

func TestTaskValidate(t *testing.T) {
	if err := validTask().Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Task)
	}{
		{"bad source", func(tk *Task) { tk.Source.Lat = 91 }},
		{"bad dest", func(tk *Task) { tk.Dest.Lat = -91 }},
		{"publish after start", func(tk *Task) { tk.Publish = tk.StartBy }},
		{"start after end", func(tk *Task) { tk.StartBy = tk.EndBy }},
		{"negative price", func(tk *Task) { tk.Price = -1; tk.WTP = 0 }},
		{"price above WTP", func(tk *Task) { tk.Price = tk.WTP + 1 }},
		{"NaN publish", func(tk *Task) { tk.Publish = math.NaN() }},
		{"NaN start deadline", func(tk *Task) { tk.StartBy = math.NaN() }},
		{"NaN end deadline", func(tk *Task) { tk.EndBy = math.NaN() }},
		{"-Inf publish", func(tk *Task) { tk.Publish = math.Inf(-1) }},
		{"+Inf end deadline", func(tk *Task) { tk.EndBy = math.Inf(1) }},
		{"NaN price", func(tk *Task) { tk.Price = math.NaN() }},
		{"NaN WTP", func(tk *Task) { tk.WTP = math.NaN() }},
		{"+Inf WTP", func(tk *Task) { tk.WTP = math.Inf(1) }},
		{"+Inf price and WTP", func(tk *Task) { tk.Price, tk.WTP = math.Inf(1), math.Inf(1) }},
	}
	for _, tc := range cases {
		tk := validTask()
		tc.mut(&tk)
		if err := tk.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestTaskAccessors(t *testing.T) {
	tk := validTask()
	if got := tk.Window(); got != 1200 {
		t.Errorf("Window = %g", got)
	}
	if got := tk.Surplus(); got != 2 {
		t.Errorf("Surplus = %g", got)
	}
}

func TestMarketValidate(t *testing.T) {
	m := DefaultMarket()
	if err := m.Validate(); err != nil {
		t.Fatalf("default market invalid: %v", err)
	}
	bad := m
	bad.Dist = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil Dist accepted")
	}
	for _, tc := range []struct {
		name       string
		speed, gas float64
	}{
		{"zero speed", 0, 0.09},
		{"negative speed", -30, 0.09},
		{"NaN speed", math.NaN(), 0.09},
		{"+Inf speed", math.Inf(1), 0.09},
		{"negative gas", 30, -1},
		{"NaN gas", 30, math.NaN()},
		{"+Inf gas", 30, math.Inf(1)},
	} {
		bad = m
		bad.SpeedKmh, bad.GasPerKm = tc.speed, tc.gas
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	free := m
	free.GasPerKm = 0
	if err := free.Validate(); err != nil {
		t.Errorf("zero gas cost rejected: %v", err)
	}
}

func TestTravelTimeAndCost(t *testing.T) {
	m := DefaultMarket()
	d := m.Dist(pA, pB)
	wantTime := d / 30 * 3600
	if got := m.TravelTime(pA, pB, 0); math.Abs(got-wantTime) > 1e-9 {
		t.Errorf("TravelTime = %g, want %g", got, wantTime)
	}
	// Speed override halves the time at 60 km/h.
	if got := m.TravelTime(pA, pB, 60); math.Abs(got-wantTime/2) > 1e-9 {
		t.Errorf("TravelTime(60) = %g, want %g", got, wantTime/2)
	}
	if got := m.TravelCost(pA, pB); math.Abs(got-d*m.GasPerKm) > 1e-12 {
		t.Errorf("TravelCost = %g", got)
	}
}

func TestDriverTravelTimeHonorsOverride(t *testing.T) {
	m := DefaultMarket()
	d := validDriver()
	d.SpeedKmh = 60
	slow := m.TravelTime(pA, pB, 0)
	if got := m.DriverTravelTime(d, pA, pB); math.Abs(got-slow/2) > 1e-9 {
		t.Errorf("DriverTravelTime = %g, want %g", got, slow/2)
	}
}

func TestServiceAndDeadheadHelpers(t *testing.T) {
	m := DefaultMarket()
	tk := validTask()
	if got, want := m.ServiceCost(tk), m.TravelCost(pA, pB); got != want {
		t.Errorf("ServiceCost = %g, want %g", got, want)
	}
	tk2 := validTask()
	tk2.Source = pB
	if got, want := m.DeadheadCost(tk, tk2), m.TravelCost(tk.Dest, tk2.Source); got != want {
		t.Errorf("DeadheadCost = %g, want %g", got, want)
	}
	d := validDriver()
	if got, want := m.BaselineCost(d), m.TravelCost(pA, pB); got != want {
		t.Errorf("BaselineCost = %g, want %g", got, want)
	}
}

func TestValidateAll(t *testing.T) {
	m := DefaultMarket()
	drivers := []Driver{validDriver()}
	tasks := []Task{validTask()}
	if err := ValidateAll(m, drivers, tasks); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	dup := append(drivers, validDriver())
	if err := ValidateAll(m, dup, tasks); err == nil {
		t.Error("duplicate driver ID accepted")
	}
	dupT := append(tasks, validTask())
	if err := ValidateAll(m, drivers, dupT); err == nil {
		t.Error("duplicate task ID accepted")
	}
	badT := []Task{validTask()}
	badT[0].Publish = badT[0].StartBy + 1
	if err := ValidateAll(m, drivers, badT); err == nil {
		t.Error("invalid task accepted")
	}
}

// TestValidateAllDuplicateIDs holds ValidateAll's id set — a bitmap
// over [0, n) and a map beyond it — to a plain map: the same first
// duplicate is reported, whichever side of the range its ids lie.
func TestValidateAllDuplicateIDs(t *testing.T) {
	m := DefaultMarket()
	for _, ids := range [][]int{
		{0, 1, 2, 3}, {0, 1, 2, 1}, {3, 2, 1, 0, 3}, {0, 5, -3, 2, -3}, {-1, 4, 7, 9, 4},
		{1 << 40, 0, 1 << 40}, {63, 64, 64}, {64, 63, 5, 6}, {2, -2, 1 << 62, 0, -1 << 62},
	} {
		want := ""
		seen := map[int]bool{}
		for _, id := range ids {
			if seen[id] {
				want = fmt.Sprintf("duplicate %%s ID %d", id)
				break
			}
			seen[id] = true
		}
		drivers := make([]Driver, len(ids))
		tasks := make([]Task, len(ids))
		for i, id := range ids {
			drivers[i], tasks[i] = validDriver(), validTask()
			drivers[i].ID, tasks[i].ID = id, id
		}
		for kind, err := range map[string]error{
			"driver": ValidateAll(m, drivers, nil),
			"task":   ValidateAll(m, nil, tasks),
		} {
			switch {
			case want == "" && err != nil:
				t.Errorf("%v %ss: %v", ids, kind, err)
			case want != "" && (err == nil || err.Error() != fmt.Sprintf(want, kind)):
				t.Errorf("%v %ss: got %v, want %q", ids, kind, err, fmt.Sprintf(want, kind))
			}
		}
	}
}
