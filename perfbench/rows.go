package main

import (
	"fmt"
	"strconv"
	"strings"
)

// parseRow reads the counters of one result row — the tab-separated
// golden format PointSpec.Run renders — into a flat map. Plain columns
// keep their name ("cycles", "retx"); struct columns such as
// mem={L1Hits:950 ...} are flattened to "mem.L1Hits". Non-numeric columns
// (the energy figure's pJ suffix aside) are skipped.
func parseRow(row string) (map[string]float64, error) {
	cols := strings.Split(row, "\t")
	if len(cols) < 2 {
		return nil, fmt.Errorf("row %q has no counter columns", row)
	}
	out := make(map[string]float64)
	for _, col := range cols[1:] {
		key, val, ok := strings.Cut(col, "=")
		if !ok {
			return nil, fmt.Errorf("row %s: column %q is not key=value", cols[0], col)
		}
		if strings.HasPrefix(val, "{") {
			if !strings.HasSuffix(val, "}") {
				return nil, fmt.Errorf("row %s: unterminated struct column %q", cols[0], col)
			}
			for _, f := range strings.Fields(val[1 : len(val)-1]) {
				k, v, ok := strings.Cut(f, ":")
				if !ok {
					return nil, fmt.Errorf("row %s: field %q in %s", cols[0], f, key)
				}
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("row %s: %s.%s: %v", cols[0], key, k, err)
				}
				out[key+"."+k] = x
			}
			continue
		}
		if x, err := strconv.ParseFloat(strings.TrimSuffix(val, "pJ"), 64); err == nil {
			out[key] = x
		}
	}
	return out, nil
}

// exactTotals sums the simulated counters the per-layer table reads from
// rows. They depend only on the seed, so they repeat bit for bit across
// runs and double as a check that simulated results did not move.
type exactTotals struct {
	Rows          int     `json:"rows"`
	Cycles        float64 `json:"cycles"`
	L1Hits        float64 `json:"mem_l1_hits"`
	L1Misses      float64 `json:"mem_l1_misses"`
	Txns          float64 `json:"mem_txns"`
	Invalidations float64 `json:"mem_invalidations"`
	Msgs          float64 `json:"net_messages"`
	Collisions    float64 `json:"net_collisions"`
	Skipped       float64 `json:"net_skipped_grants"`
	LatencySum    float64 `json:"net_latency_sum"`
	Retx          float64 `json:"channel_retx"`
	// Sim* come from apps.Run's scheduler counters on the application
	// points, not from rows.
	SimWheel     float64 `json:"sim_wheel_events"`
	SimHeap      float64 `json:"sim_heap_events"`
	StepPoolHits float64 `json:"step_pool_hits"`
	StepPoolMiss float64 `json:"step_pool_misses"`
}

// addRow accumulates one row's counters.
func (t *exactTotals) addRow(row string) error {
	c, err := parseRow(row)
	if err != nil {
		return err
	}
	t.Rows++
	t.Cycles += c["cycles"]
	t.L1Hits += c["mem.L1Hits"]
	t.L1Misses += c["mem.L1Misses"]
	t.Txns += c["mem.Transactions"]
	t.Invalidations += c["mem.Invalidations"]
	t.Msgs += c["net.Messages"]
	t.Collisions += c["net.Collisions"]
	t.Skipped += c["net.SkippedGrants"]
	t.LatencySum += c["net.LatencySum"]
	t.Retx += c["retx"]
	return nil
}

// ratio is a/b, or 0 when the layer saw no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
