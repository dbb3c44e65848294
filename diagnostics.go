package hipo

import (
	"fmt"

	"hipo/internal/cells"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/radial"
)

// FeasibleArea returns the exact area (in squared scenario units) of the
// region where a charger of the given type could be placed so as to charge
// device deviceIdx with non-zero power: the device's receiving sector ring
// clipped by the charger's distance ring and by obstacle occlusion — the
// analytic form of the paper's feasible geometric areas (Section 4.1.2)
// aggregated over distance bands. A small area warns that a device is
// nearly unreachable before any solve.
func (s *Scenario) FeasibleArea(chargerType, deviceIdx int) (float64, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return 0, err
	}
	if chargerType < 0 || chargerType >= len(sc.ChargerTypes) {
		return 0, fmt.Errorf("hipo: charger type %d out of range", chargerType)
	}
	if deviceIdx < 0 || deviceIdx >= len(sc.Devices) {
		return 0, fmt.Errorf("hipo: device index %d out of range", deviceIdx)
	}
	return radial.FeasibleAreaForDevice(sc, chargerType, deviceIdx), nil
}

// FeasibleCellCount returns the number of feasible geometric areas
// (Section 4.1.2 cells) of one device under one charger type for the given
// approximation parameter ε — the quantity Lemma 4.4 bounds. Diagnostic
// companion to FeasibleArea. An ε that CheckEps rejects is rejected before
// any other work.
func (s *Scenario) FeasibleCellCount(chargerType, deviceIdx int, eps float64) (int, error) {
	if err := CheckEps(eps); err != nil {
		return 0, err
	}
	sc, err := s.internalScenario()
	if err != nil {
		return 0, err
	}
	if chargerType < 0 || chargerType >= len(sc.ChargerTypes) {
		return 0, fmt.Errorf("hipo: charger type %d out of range", chargerType)
	}
	if deviceIdx < 0 || deviceIdx >= len(sc.Devices) {
		return 0, fmt.Errorf("hipo: device index %d out of range", deviceIdx)
	}
	return len(cells.DeviceCells(sc, chargerType, deviceIdx, power.Eps1ForEps(eps))), nil
}

// CheckEps returns a *FieldError on "eps" unless ε is a valid
// approximation parameter, in (0, ½). The test is written positively so a
// NaN ε fails it.
func CheckEps(eps float64) error {
	if !(eps > 0 && eps < 0.5) {
		return model.Errorf("eps", "must be in (0, 0.5), got %v", eps)
	}
	return nil
}

// UnreachableDevices returns the indices of devices that no charger type
// can reach at all (zero feasible area for every type) — these devices cap
// the achievable utility regardless of budget.
func (s *Scenario) UnreachableDevices() ([]int, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return nil, err
	}
	var out []int
	for j := range sc.Devices {
		reachable := false
		for q := range sc.ChargerTypes {
			if radial.FeasibleAreaForDevice(sc, q, j) > 1e-9 {
				reachable = true
				break
			}
		}
		if !reachable {
			out = append(out, j)
		}
	}
	return out, nil
}
