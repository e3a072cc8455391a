// Package chaos is a seeded, deterministic in-process network fault layer
// for the harmony protocol: a frame-relaying TCP proxy that sits between the
// client's dial and Server.ServeWith and injects connection resets, one-way
// partitions (dropped frames), latency stalls, duplicated frames, truncated
// frames, and mid-session server kill/restart — plus the supervisor that
// makes the kills survivable.
//
// Every fault decision is drawn from a single seeded RNG at construction
// time, in a fixed iteration order, before any traffic flows. The resulting
// schedule — the chaos_plan/chaos_kill event stream — is therefore a pure
// function of (Config.Seed, Config): two proxies built from the same config
// emit byte-identical plan traces, which is the property cmd/chaosharness
// pins. What the proxy *executes* depends on how much traffic actually
// flows (connection order, retry timing), so applied faults are mirrored
// separately as chaos_applied events: observability, not part of the
// byte-identity contract.
package chaos

import (
	"errors"
	"math/rand"

	"paratune/internal/dist"
	"paratune/internal/event"
)

// Action is one planned per-frame fault.
type Action uint8

// Per-frame fault kinds. Pass forwards the frame untouched; the rest
// correspond one-to-one with the chaos_plan event's action names.
const (
	Pass Action = iota
	// Delay holds the frame for a drawn number of milliseconds before
	// forwarding it (a latency stall / slow link).
	Delay
	// Drop silently discards the frame — a one-way partition window: the
	// sender believes it was delivered, the receiver never sees it.
	Drop
	// Dup forwards the frame twice, exercising the receiver's duplicate
	// suppression (frame sequence numbers on the server, response sequence
	// echo on the client).
	Dup
	// Truncate forwards a prefix of the frame's bytes and then severs the
	// link — the receiver sees a garbage partial line followed by EOF.
	Truncate
	// Reset severs the link before the frame is forwarded, simulating a
	// connection reset mid-conversation.
	Reset
)

// String returns the chaos_plan action name.
func (a Action) String() string {
	switch a {
	case Pass:
		return "pass"
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Dup:
		return "dup"
	case Truncate:
		return "truncate"
	case Reset:
		return "reset"
	default:
		return "unknown"
	}
}

// Directions, in plan order.
const (
	dirC2S = "c2s"
	dirS2C = "s2c"
)

// Config parameterises one chaos schedule. All probabilities are per frame
// and must sum to at most 1; the remainder is the pass probability.
type Config struct {
	// Seed drives every fault decision. Same seed, same config, same plan.
	Seed int64

	// Links is the number of proxied connections the schedule covers; links
	// accepted beyond it forward traffic untouched. Default 16.
	Links int
	// Frames is the number of frames planned per link per direction; frames
	// beyond it pass through. Default 64.
	Frames int

	// PDelay, PDrop, PDup, PTruncate, and PReset are the per-frame
	// probabilities of each fault. All zero means a transparent proxy.
	PDelay, PDrop, PDup, PTruncate, PReset float64

	// DelayMinMS and DelayMaxMS bound the drawn stall, in milliseconds.
	// Defaults 1 and 20.
	DelayMinMS, DelayMaxMS float64

	// Kills is the number of mid-session server kills to schedule; 0 (the
	// default) disables them. Each kill fires after a drawn total of
	// forwarded client frames and keeps the server down for a drawn time.
	Kills int
	// KillEveryFrames is the mean client-frame gap between kills; default 40.
	KillEveryFrames int
	// DownMinMS and DownMaxMS bound the drawn downtime before the supervisor
	// restarts the server, in milliseconds. Defaults 10 and 50.
	DownMinMS, DownMaxMS float64

	// Recorder receives the plan at construction and applied faults at
	// execution; nil records nothing.
	Recorder event.Recorder
}

func (c *Config) normalise() error {
	if c.Links <= 0 {
		c.Links = 16
	}
	if c.Frames <= 0 {
		c.Frames = 64
	}
	p := c.PDelay + c.PDrop + c.PDup + c.PTruncate + c.PReset
	if c.PDelay < 0 || c.PDrop < 0 || c.PDup < 0 || c.PTruncate < 0 || c.PReset < 0 || p > 1 {
		return errors.New("chaos: fault probabilities must be non-negative and sum to at most 1")
	}
	if c.DelayMinMS <= 0 {
		c.DelayMinMS = 1
	}
	if c.DelayMaxMS < c.DelayMinMS {
		c.DelayMaxMS = c.DelayMinMS + 19
	}
	if c.KillEveryFrames <= 0 {
		c.KillEveryFrames = 40
	}
	if c.DownMinMS <= 0 {
		c.DownMinMS = 10
	}
	if c.DownMaxMS < c.DownMinMS {
		c.DownMaxMS = c.DownMinMS + 40
	}
	return nil
}

// planned is one frame's drawn fault.
type planned struct {
	act     Action
	delayMS float64 // Delay only
	bytes   int     // Truncate only: forwarded prefix length
}

// kill is one scheduled server kill.
type kill struct {
	afterFrames int     // total forwarded client frames that trigger it
	downMS      float64 // drawn downtime before restart
}

// schedule is a fully drawn fault plan: every decision the proxy will ever
// make, fixed at construction.
type schedule struct {
	// links[link][dir][frame]; dir 0 is c2s, dir 1 is s2c.
	links [][2][]planned
	kills []kill
}

// newSchedule draws the complete plan from cfg in a fixed iteration order
// (link-major, c2s before s2c, frame-minor, kills last), so the plan — and
// the event stream emit produces — is a pure function of cfg.
func newSchedule(cfg Config) *schedule {
	rng := dist.NewRNG(cfg.Seed)
	s := &schedule{links: make([][2][]planned, cfg.Links)}
	for l := 0; l < cfg.Links; l++ {
		for d := 0; d < 2; d++ {
			frames := make([]planned, cfg.Frames)
			for f := range frames {
				frames[f] = drawFrame(cfg, rng)
			}
			s.links[l][d] = frames
		}
	}
	after := 0
	for k := 0; k < cfg.Kills; k++ {
		// Uniform in [1, 2*mean] keeps the mean gap at KillEveryFrames while
		// spreading kills across the run.
		after += 1 + rng.Intn(2*cfg.KillEveryFrames)
		s.kills = append(s.kills, kill{
			afterFrames: after,
			downMS:      cfg.DownMinMS + rng.Float64()*(cfg.DownMaxMS-cfg.DownMinMS),
		})
	}
	return s
}

// drawFrame draws one frame's fault from the cumulative probability split.
func drawFrame(cfg Config, rng *rand.Rand) planned {
	u := rng.Float64()
	switch {
	case u < cfg.PDelay:
		return planned{act: Delay, delayMS: cfg.DelayMinMS + rng.Float64()*(cfg.DelayMaxMS-cfg.DelayMinMS)}
	case u < cfg.PDelay+cfg.PDrop:
		return planned{act: Drop}
	case u < cfg.PDelay+cfg.PDrop+cfg.PDup:
		return planned{act: Dup}
	case u < cfg.PDelay+cfg.PDrop+cfg.PDup+cfg.PTruncate:
		return planned{act: Truncate, bytes: 1 + rng.Intn(32)}
	case u < cfg.PDelay+cfg.PDrop+cfg.PDup+cfg.PTruncate+cfg.PReset:
		return planned{act: Reset}
	default:
		return planned{act: Pass}
	}
}

// dirName returns the plan name of direction index d.
func dirName(d int) string {
	if d == 0 {
		return dirC2S
	}
	return dirS2C
}

// emit replays the plan into rec in generation order. Only non-pass frames
// are emitted; the stream is byte-identical across same-config schedules.
func (s *schedule) emit(rec event.Recorder) {
	rec = event.OrNop(rec)
	for l, link := range s.links {
		for d, frames := range link {
			for f, pl := range frames {
				if pl.act == Pass {
					continue
				}
				rec.Record(event.ChaosPlan{
					Link:    l,
					Dir:     dirName(d),
					Frame:   f,
					Action:  pl.act.String(),
					DelayMS: pl.delayMS,
					Bytes:   pl.bytes,
				})
			}
		}
	}
	for i, k := range s.kills {
		rec.Record(event.ChaosKill{Seq: i, AfterFrames: k.afterFrames, DownMS: k.downMS})
	}
}

// frame returns the planned fault for the given link, direction index, and
// frame ordinal; out-of-plan traffic passes through.
func (s *schedule) frame(link, dir, f int) planned {
	if link >= len(s.links) || f >= len(s.links[link][dir]) {
		return planned{act: Pass}
	}
	return s.links[link][dir][f]
}
