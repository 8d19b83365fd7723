package selection

import "math/rand"

// ChurnConfig drives deterministic join/leave client churn: each round,
// every online client leaves with probability LeaveRate and every
// offline client rejoins with probability JoinRate. The zero value
// disables churn.
type ChurnConfig struct {
	// JoinRate is the per-round probability an offline client comes back
	// online.
	JoinRate float64
	// LeaveRate is the per-round probability an online client goes
	// offline.
	LeaveRate float64
	// MinOnline is a floor on the online population: leaves that would
	// drop below it are suppressed (the coordinator always has someone
	// to talk to). Clamped to at least 1.
	MinOnline int
}

// Enabled reports whether the config produces any churn.
func (c ChurnConfig) Enabled() bool { return c.JoinRate > 0 || c.LeaveRate > 0 }

// Churn tracks which clients are currently online. Stepping consumes
// one rng draw per client in ascending client order, so the online set
// evolves deterministically for a fixed run seed — and is part of the
// runtime's checkpoint via Snapshot/Restore.
type Churn struct {
	cfg    ChurnConfig
	online []bool
	n      int // count of online clients
}

// NewChurn returns a tracker over total clients, all initially online.
func NewChurn(total int, cfg ChurnConfig) *Churn {
	if cfg.MinOnline < 1 {
		cfg.MinOnline = 1
	}
	c := &Churn{cfg: cfg, online: make([]bool, total), n: total}
	for i := range c.online {
		c.online[i] = true
	}
	return c
}

// Step advances the online set by one round. Every client consumes
// exactly one draw whether or not its state changes, so the rng stream
// position after Step depends only on the client count — a requirement
// for deterministic resume.
func (c *Churn) Step(rng *rand.Rand) {
	for i := range c.online {
		u := rng.Float64()
		if c.online[i] {
			if u < c.cfg.LeaveRate && c.n > c.cfg.MinOnline {
				c.online[i] = false
				c.n--
			}
		} else if u < c.cfg.JoinRate {
			c.online[i] = true
			c.n++
		}
	}
}

// ActiveInto appends the online client IDs in ascending order to buf
// (pass buf[:0] to reuse capacity) — the round loop's per-round
// candidate list without a per-round allocation.
func (c *Churn) ActiveInto(buf []int) []int {
	for i, on := range c.online {
		if on {
			buf = append(buf, i)
		}
	}
	return buf
}

// Snapshot returns a copy of the online bitmap (checkpointing).
func (c *Churn) Snapshot() []bool {
	return append([]bool(nil), c.online...)
}

// RestoreResized restores a snapshot that may cover fewer clients than
// the population now holds (a checkpoint written before the dataset
// grew). The saved prefix is restored verbatim; clients beyond it start
// online, matching NewChurn's initialization, and take their chances
// with the leave draws from the next Step like everyone else. total
// must be at least len(online).
func (c *Churn) RestoreResized(online []bool, total int) {
	if total < len(online) {
		panic("selection: churn snapshot covers more clients than the population")
	}
	c.online = append(c.online[:0], online...)
	for len(c.online) < total {
		c.online = append(c.online, true)
	}
	c.n = 0
	for _, on := range c.online {
		if on {
			c.n++
		}
	}
}
