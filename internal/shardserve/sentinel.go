package shardserve

import (
	"encoding/json"

	"saqp/internal/fault"
	"saqp/internal/obs"
)

// SentinelConfig tunes the tick-driven health/failover loop.
type SentinelConfig struct {
	// Sentinels is the number of independent health checkers. Default 3.
	Sentinels int
	// Quorum is the number of down-votes that triggers a failover.
	// Default: majority of Sentinels.
	Quorum int
	// HeartbeatSec is the simulated seconds each Tick advances, and the
	// cadence at which every sentinel samples every shard. Default 1.
	HeartbeatSec float64
	// MissThreshold is the consecutive missed heartbeats after which one
	// sentinel votes a shard subjectively down. Default 3.
	MissThreshold int
	// Plan supplies the crash windows: plan node i's outages take down
	// shard i's primary. Nil means no crashes ever actuate.
	Plan *fault.Plan
	// Seed derives the per-sentinel heartbeat phase jitter, so the three
	// sentinels do not sample in lockstep. Default 1.
	Seed uint64
}

// normalize fills defaults and clamps the quorum into a sane range.
func (s SentinelConfig) normalize() SentinelConfig {
	if s.Sentinels <= 0 {
		s.Sentinels = 3
	}
	if s.Quorum <= 0 {
		s.Quorum = s.Sentinels/2 + 1
	}
	if s.Quorum > s.Sentinels {
		s.Quorum = s.Sentinels
	}
	if s.HeartbeatSec <= 0 {
		s.HeartbeatSec = 1
	}
	if s.MissThreshold <= 0 {
		s.MissThreshold = 3
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// sentinelPhases spreads the sentinels' sample instants inside one
// heartbeat interval, derived deterministically from the seed.
func sentinelPhases(s SentinelConfig) []float64 {
	phases := make([]float64, s.Sentinels)
	for j := range phases {
		phases[j] = s.HeartbeatSec * float64(sentinelMix(s.Seed^uint64(j+1))>>11) / (1 << 53)
	}
	return phases
}

// sentinelMix is the SplitMix64 finalizer — a bijective avalanche used
// only to turn (seed, sentinel index) into a stable phase offset.
func sentinelMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Event kinds, in the order they can appear within one tick.
const (
	// EventCrash marks a fault-plan window taking a primary down.
	EventCrash = "crash"
	// EventRejoin marks a crashed instance returning as a standby.
	EventRejoin = "rejoin"
	// EventVote marks one sentinel crossing its miss threshold.
	EventVote = "vote"
	// EventRecover marks a sentinel retracting its vote after a
	// successful heartbeat, when no failover intervened.
	EventRecover = "recover"
	// EventFailover marks a quorum promoting a shard's replica.
	EventFailover = "failover"
)

// Event is one sentinel state transition. The log of Events is a pure
// function of (fault plan, sentinel config, tick count) — concurrent
// query traffic never influences it, which is what makes same-seed
// failover replays byte-identical.
type Event struct {
	// Tick is the coordinator tick that produced the event.
	Tick int `json:"tick"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// Shard is the affected shard.
	Shard int `json:"shard"`
	// Sentinel is the voting sentinel for vote/recover events, -1
	// otherwise.
	Sentinel int `json:"sentinel"`
	// Epoch is the cluster epoch after the event.
	Epoch int `json:"epoch"`
	// Votes is the quorum size that triggered a failover, 0 otherwise.
	Votes int `json:"votes"`
}

// Tick advances simulated time by one heartbeat interval and runs the
// sentinel state machine: actuate fault-plan crash windows, sample
// phase-jittered heartbeats, accumulate misses into votes, fail over
// on quorum, and fan the leader's champion model out to every alive
// replica. It returns the events this tick produced.
func (c *Cluster) Tick() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	start := len(c.events)
	hb := c.scfg.HeartbeatSec
	now := float64(c.tick) * hb

	// Phase 1: actuate crash windows against the primaries. The
	// composed fault plan's node i maps onto shard i's primary; the
	// replica is the stable standby this composition promotes into.
	for i, sh := range c.shards {
		down := c.planDown(i, now)
		if down == sh.down[RolePrimary] {
			continue
		}
		sh.down[RolePrimary] = down
		if down {
			c.append(Event{Tick: c.tick, Kind: EventCrash, Shard: i, Sentinel: -1, Epoch: c.epoch})
			c.ob.ShardCrash(c.alivePrimariesLocked())
		} else {
			c.append(Event{Tick: c.tick, Kind: EventRejoin, Shard: i, Sentinel: -1, Epoch: c.epoch})
			c.ob.ShardRejoin(c.alivePrimariesLocked())
		}
	}

	// Phase 2: heartbeats. Each sentinel sampled each shard once during
	// the interval that just elapsed, at its jittered phase offset.
	for i, sh := range c.shards {
		for j := 0; j < c.scfg.Sentinels; j++ {
			at := float64(c.tick-1)*hb + c.phase[j]
			miss := sh.active == RolePrimary && c.planDown(i, at)
			if miss {
				sh.misses[j]++
				c.ob.Count(obs.MShardHeartbeatMisses)
				if sh.misses[j] >= c.scfg.MissThreshold && !sh.votes[j] {
					sh.votes[j] = true
					c.append(Event{Tick: c.tick, Kind: EventVote, Shard: i, Sentinel: j, Epoch: c.epoch})
					c.ob.Count(obs.MShardDownVotes)
				}
				continue
			}
			sh.misses[j] = 0
			if sh.votes[j] {
				sh.votes[j] = false
				c.append(Event{Tick: c.tick, Kind: EventRecover, Shard: i, Sentinel: j, Epoch: c.epoch})
			}
		}

		// Quorum check: promote the replica while the active primary is
		// objectively down.
		if sh.active != RolePrimary || !sh.down[RolePrimary] || sh.inst[RoleReplica].Backend == nil {
			continue
		}
		votes := 0
		for _, v := range sh.votes {
			if v {
				votes++
			}
		}
		if votes < c.scfg.Quorum {
			continue
		}
		sh.active = RoleReplica
		c.epoch++
		close(sh.promoted)
		sh.promoted = make(chan struct{})
		for j := range sh.votes {
			sh.votes[j] = false
			sh.misses[j] = 0
		}
		c.append(Event{Tick: c.tick, Kind: EventFailover, Shard: i, Sentinel: -1, Epoch: c.epoch, Votes: votes})
		c.ob.ShardFailover(c.epoch)
	}

	// Phase 3: model fan-out to every alive replica.
	c.syncModelsLocked()

	out := make([]Event, len(c.events)-start)
	copy(out, c.events[start:])
	return out
}

// planDown reports whether shard's primary is inside a crash window at
// simulated time t.
func (c *Cluster) planDown(shard int, t float64) bool {
	if c.scfg.Plan == nil {
		return false
	}
	for _, w := range c.scfg.Plan.Crashes() {
		if w.Node == shard && t >= w.Start && t < w.End {
			return true
		}
	}
	return false
}

// alivePrimariesLocked counts primaries outside any crash window.
func (c *Cluster) alivePrimariesLocked() int {
	n := 0
	for _, sh := range c.shards {
		if !sh.down[RolePrimary] {
			n++
		}
	}
	return n
}

// append records one event.
func (c *Cluster) append(e Event) { c.events = append(c.events, e) }

// Events returns a copy of the full event log since construction.
func (c *Cluster) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// EventsJSON renders the event log as newline-delimited JSON, one
// event per line — the byte-identical replay artifact the stress suite
// compares across same-seed runs.
func (c *Cluster) EventsJSON() []byte {
	events := c.Events()
	var out []byte
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			// Event is a flat struct of ints and strings; Marshal cannot
			// fail on it.
			continue
		}
		out = append(out, b...)
		out = append(out, '\n')
	}
	return out
}
