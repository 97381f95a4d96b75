package control

import (
	"fmt"

	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/utility"
)

// Static is the "Jockey w/o adaptation" baseline (§3.2, §5.2): it uses the
// predictor once, before the job starts, to find the a-priori allocation
// that maximizes utility, and never changes it.
type Static struct {
	cfg     Config
	decided bool
	alloc   int
}

// NewStatic builds the static-quota policy. It accepts the same Config as
// the controller; hysteresis and dead zone are ignored.
func NewStatic(cfg Config) (*Static, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Static{cfg: cfg}, nil
}

// ChangeUtility implements Policy. A static quota cannot react, matching the
// baseline's behaviour; the new curve only affects the initial decision if
// it has not been made yet.
func (s *Static) ChangeUtility(u utility.Fn) {
	if !s.decided {
		s.cfg.Utility = u
	}
}

// Decide implements Policy.
func (s *Static) Decide(st model.State) Decision {
	if !s.decided {
		s.decided = true
		s.alloc = s.cfg.argmax(st, s.cfg.Utility, nil)
	}
	return Decision{Raw: s.alloc, Granted: s.alloc}
}

// MaxAllocation is the baseline that guarantees a fixed, maximal number of
// tokens for the whole run (§5.1's "max allocation" policy).
type MaxAllocation struct {
	tokens int
}

// NewMaxAllocation builds the policy; tokens must be positive.
func NewMaxAllocation(tokens int) (*MaxAllocation, error) {
	if tokens < 1 {
		return nil, fmt.Errorf("control: max allocation needs at least 1 token, got %d", tokens)
	}
	return &MaxAllocation{tokens: tokens}, nil
}

// ChangeUtility implements Policy (no-op).
func (m *MaxAllocation) ChangeUtility(utility.Fn) {}

// Decide implements Policy.
func (m *MaxAllocation) Decide(model.State) Decision {
	return Decision{Raw: m.tokens, Granted: m.tokens}
}
