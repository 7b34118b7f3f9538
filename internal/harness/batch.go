package harness

import (
	"errors"
	"fmt"

	"wisync/internal/config"
)

// Batch is a point template crossed with lists of machine kinds, core
// counts and seeds: the body of a sweep-service job and the flags of
// `wisync-bench point`, so both expand the same way. In JSON the lists are
// "kinds", "cores" and "seeds"; "cores" is the list, and the template's
// scalar "kind" and "seed" are refused, so a batch cannot name an axis two
// ways.
type Batch struct {
	PointSpec
	Kinds []config.Kind `json:"kinds,omitempty"`
	Cores []int         `json:"cores,omitempty"`
	Seeds []uint64      `json:"seeds,omitempty"`
	// Kind and Seed shadow the template's scalar fields in JSON: a batch
	// names those axes only as lists, so either key fails to decode, and
	// neither is ever encoded.
	Kind listOnly `json:"kind,omitempty"`
	Seed listOnly `json:"seed,omitempty"`
}

// listOnly is the type of a Batch key that must not appear: any value,
// null included, fails to decode, and the zero value is never encoded.
type listOnly bool

func (*listOnly) UnmarshalJSON([]byte) error {
	return errors.New("a batch lists its axes as kinds, cores and seeds, not as a scalar kind or seed")
}

// MaxBatchPoints is the default cap on the points one batch may expand to.
const MaxBatchPoints = 4096

// WithDefaults fills each omitted list with its single default: WiSync, 64
// cores, seed 1.
func (b Batch) WithDefaults() Batch {
	if len(b.Kinds) == 0 {
		b.Kinds = []config.Kind{config.WiSync}
	}
	if len(b.Cores) == 0 {
		b.Cores = []int{64}
	}
	if len(b.Seeds) == 0 {
		b.Seeds = []uint64{1}
	}
	return b
}

// Expand crosses the batch's lists, defaulted, into normalized, validated
// point specs in kinds x cores x seeds order (the golden matrix's row
// order). The list product is checked against maxPoints before a single
// spec is allocated, and any invalid point fails the whole batch: a typo
// surfaces before any simulation runs.
func (b Batch) Expand(maxPoints int) ([]PointSpec, error) {
	b = b.WithDefaults()
	// Overflow-safe product: a small body can list enough kinds, cores and
	// seeds to make the expansion exhaust memory.
	total := 1
	for _, l := range []int{len(b.Kinds), len(b.Cores), len(b.Seeds)} {
		if total > maxPoints/l {
			return nil, fmt.Errorf("batch expands to %d kinds x %d cores x %d seeds, cap is %d points",
				len(b.Kinds), len(b.Cores), len(b.Seeds), maxPoints)
		}
		total *= l
	}
	specs := make([]PointSpec, 0, total)
	for _, k := range b.Kinds {
		for _, cores := range b.Cores {
			for _, seed := range b.Seeds {
				s := b.PointSpec
				s.Kind, s.Cores, s.Seed = k, cores, seed
				n, err := s.Normalize()
				if err != nil {
					return nil, err
				}
				if err := n.Validate(); err != nil {
					return nil, fmt.Errorf("point %s: %w", n.ID(), err)
				}
				specs = append(specs, n)
			}
		}
	}
	return specs, nil
}
