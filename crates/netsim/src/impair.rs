//! Adversarial link impairments: stochastic loss, duplication, corruption,
//! reordering jitter, and deterministic link flapping.
//!
//! Every stochastic decision is drawn from a *per-channel impairment RNG
//! lane* seeded from the simulator seed (see `Channel`), never from the
//! agents' RNG — so enabling an impairment on one link cannot reshuffle
//! random draws anywhere else in the simulation. Same seed + same
//! impairment spec ⇒ bit-identical runs, which is what keeps snapshot-fork
//! execution and cross-strategy memoization exact under noise.
//!
//! Probabilities are stored in parts-per-million (`u32`) rather than `f64`
//! so [`Impairment`] stays `Copy + Eq + Hash`-friendly and a spec can be
//! compared, journaled and replayed without float round-trip worries.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// One million — the denominator of all impairment probabilities.
pub const PPM: u32 = 1_000_000;

/// A deterministic link up/down schedule: the link direction is down
/// (drops every arrival) during `[first_down + k·period, first_down +
/// k·period + down_for)` for every `k ≥ 0`.
///
/// Flapping consumes no RNG draws at all: whether an arrival is dropped
/// depends only on the simulated clock, so a flap schedule composes with
/// the stochastic impairments without perturbing their draw sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSpec {
    /// When the first outage starts.
    pub first_down: SimTime,
    /// How long each outage lasts. Must be shorter than `period`.
    pub down_for: SimDuration,
    /// Distance between the starts of consecutive outages.
    pub period: SimDuration,
}

impl FlapSpec {
    /// Whether the link direction is down at `now`.
    pub fn is_down(&self, now: SimTime) -> bool {
        if now < self.first_down {
            return false;
        }
        let since = (now - self.first_down).as_nanos();
        let period = self.period.as_nanos().max(1);
        since % period < self.down_for.as_nanos()
    }
}

/// Impairments applied to one direction of a link.
///
/// The default ([`Impairment::NONE`]) applies nothing and — crucially —
/// draws nothing: a link with no impairments never touches its impairment
/// RNG lane, so adding the field is invisible to existing scenarios.
///
/// Order of application per arriving packet: flap window check (no draw),
/// loss draw, corruption draw, duplication draw; an independently drawn
/// reorder jitter is added to the propagation delay at transmit
/// completion. Draws only happen for impairments whose probability is
/// non-zero, so the draw sequence of a spec is stable when unrelated
/// impairments are added elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Impairment {
    /// Probability (ppm) an arriving packet is silently lost.
    pub loss_ppm: u32,
    /// Probability (ppm) an arriving packet is duplicated (the copy is
    /// offered to the queue right behind the original).
    pub dup_ppm: u32,
    /// Probability (ppm) an arriving packet is corrupted on the wire.
    /// Corrupted frames fail the receiving NIC's frame check and are
    /// discarded, as on real Ethernet — so corruption is loss with its
    /// own counter and its own draw.
    pub corrupt_ppm: u32,
    /// Probability (ppm) a delivered packet is held back by an extra
    /// uniform delay in `(0, jitter]`, overtaking later traffic.
    pub reorder_ppm: u32,
    /// Maximum extra delay a reordered packet receives.
    pub jitter: SimDuration,
    /// Optional deterministic link flapping schedule.
    pub flap: Option<FlapSpec>,
}

impl Impairment {
    /// No impairments: the spec every link starts with.
    pub const NONE: Impairment = Impairment {
        loss_ppm: 0,
        dup_ppm: 0,
        corrupt_ppm: 0,
        reorder_ppm: 0,
        jitter: SimDuration::ZERO,
        flap: None,
    };

    /// Whether this spec applies nothing at all.
    pub fn is_none(&self) -> bool {
        *self == Impairment::NONE
    }

    /// Whether any impairment consumes RNG draws (everything but flap).
    pub fn is_stochastic(&self) -> bool {
        self.loss_ppm > 0 || self.dup_ppm > 0 || self.corrupt_ppm > 0 || self.reorder_ppm > 0
    }

    /// The built-in presets, name → spec. These are the configurations the
    /// robustness test matrix and `snake campaign --impair NAME` use.
    pub fn presets() -> &'static [(&'static str, Impairment)] {
        const MS: u64 = 1_000_000; // nanoseconds per millisecond
        const PRESETS: &[(&str, Impairment)] = &[
            (
                "light",
                Impairment {
                    loss_ppm: 1_000,    // 0.1 %
                    reorder_ppm: 5_000, // 0.5 %
                    jitter: SimDuration::from_nanos(500_000),
                    ..Impairment::NONE
                },
            ),
            (
                "lossy",
                Impairment {
                    loss_ppm: 20_000,   // 2 %
                    dup_ppm: 2_000,     // 0.2 %
                    corrupt_ppm: 5_000, // 0.5 %
                    ..Impairment::NONE
                },
            ),
            (
                "jittery",
                Impairment {
                    reorder_ppm: 50_000, // 5 %
                    jitter: SimDuration::from_nanos(3 * MS),
                    ..Impairment::NONE
                },
            ),
            (
                "flappy",
                Impairment {
                    flap: Some(FlapSpec {
                        first_down: SimTime::from_millis(3_000),
                        down_for: SimDuration::from_millis(150),
                        period: SimDuration::from_millis(5_000),
                    }),
                    ..Impairment::NONE
                },
            ),
            (
                "chaos",
                Impairment {
                    loss_ppm: 10_000,   // 1 %
                    dup_ppm: 5_000,     // 0.5 %
                    corrupt_ppm: 5_000, // 0.5 %
                    reorder_ppm: 20_000,
                    jitter: SimDuration::from_nanos(2 * MS),
                    flap: Some(FlapSpec {
                        first_down: SimTime::from_millis(4_000),
                        down_for: SimDuration::from_millis(120),
                        period: SimDuration::from_millis(6_000),
                    }),
                },
            ),
        ];
        PRESETS
    }

    /// Looks up a built-in preset by name.
    pub fn preset(name: &str) -> Option<Impairment> {
        Impairment::presets()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, spec)| *spec)
    }

    /// Parses an impairment spec: `none`, a preset name (`lossy`), or a
    /// comma-separated `key=value` list:
    ///
    /// * `loss=F` / `dup=F` / `corrupt=F` / `reorder=F` — probabilities as
    ///   fractions in `[0, 1]` (so `loss=0.02` is 2 % loss),
    /// * `jitter=MS` — maximum reorder delay in milliseconds,
    /// * `flap=FIRST:DOWN:PERIOD` — outage schedule in seconds.
    ///
    /// `reorder` without an explicit `jitter` defaults to 1 ms of jitter.
    /// Flap durations are rounded to whole nanoseconds before they are
    /// checked, so an accepted schedule renders and re-parses unchanged.
    pub fn parse(s: &str) -> Result<Impairment, String> {
        let s = s.trim();
        if s == "none" {
            return Ok(Impairment::NONE);
        }
        if let Some(preset) = Impairment::preset(s) {
            return Ok(preset);
        }
        let mut spec = Impairment::NONE;
        let mut jitter_set = false;
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("impairment `{part}` is not KEY=VALUE or a preset name"))?;
            match key {
                "loss" => spec.loss_ppm = parse_fraction(key, value)?,
                "dup" => spec.dup_ppm = parse_fraction(key, value)?,
                "corrupt" => spec.corrupt_ppm = parse_fraction(key, value)?,
                "reorder" => spec.reorder_ppm = parse_fraction(key, value)?,
                "jitter" => {
                    let ms: f64 = value
                        .parse()
                        .map_err(|_| format!("jitter expects milliseconds (got `{value}`)"))?;
                    if !(0.0..=60_000.0).contains(&ms) {
                        return Err(format!("jitter must be within [0, 60000] ms (got {ms})"));
                    }
                    spec.jitter = SimDuration::from_secs_f64(ms / 1e3);
                    jitter_set = true;
                }
                "flap" => spec.flap = Some(parse_flap(value)?),
                other => {
                    return Err(format!(
                        "unknown impairment `{other}` (expected loss/dup/corrupt/reorder/jitter/flap or a preset: {})",
                        preset_names().join(", ")
                    ))
                }
            }
        }
        if spec.reorder_ppm > 0 && !jitter_set && spec.jitter == SimDuration::ZERO {
            spec.jitter = SimDuration::from_millis(1);
        }
        Ok(spec)
    }
}

impl fmt::Display for Impairment {
    /// Round-trippable rendering (the manifest and the journal header use
    /// this): `none`, or a `key=value` list that names `jitter` whenever
    /// reordering is on, so a zero jitter does not re-parse as the default.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return f.write_str("none");
        }
        let mut parts: Vec<String> = Vec::new();
        let frac = |ppm: u32| ppm as f64 / PPM as f64;
        if self.loss_ppm > 0 {
            parts.push(format!("loss={}", frac(self.loss_ppm)));
        }
        if self.dup_ppm > 0 {
            parts.push(format!("dup={}", frac(self.dup_ppm)));
        }
        if self.corrupt_ppm > 0 {
            parts.push(format!("corrupt={}", frac(self.corrupt_ppm)));
        }
        if self.reorder_ppm > 0 {
            parts.push(format!("reorder={}", frac(self.reorder_ppm)));
        }
        if self.jitter > SimDuration::ZERO || self.reorder_ppm > 0 {
            parts.push(format!("jitter={}", self.jitter.as_nanos() as f64 / 1e6));
        }
        if let Some(flap) = &self.flap {
            parts.push(format!(
                "flap={}:{}:{}",
                flap.first_down.as_secs_f64(),
                flap.down_for.as_secs_f64(),
                flap.period.as_secs_f64()
            ));
        }
        f.write_str(&parts.join(","))
    }
}

/// The preset names, for error messages and CLI help.
pub fn preset_names() -> Vec<&'static str> {
    Impairment::presets().iter().map(|(n, _)| *n).collect()
}

fn parse_fraction(key: &str, value: &str) -> Result<u32, String> {
    let f: f64 = value
        .parse()
        .map_err(|_| format!("{key} expects a fraction in [0, 1] (got `{value}`)"))?;
    if !(0.0..=1.0).contains(&f) {
        return Err(format!("{key} must be within [0, 1] (got {f})"));
    }
    Ok((f * PPM as f64).round() as u32)
}

fn parse_flap(value: &str) -> Result<FlapSpec, String> {
    let parts: Vec<&str> = value.split(':').collect();
    let [first, down, period] = parts.as_slice() else {
        return Err(format!(
            "flap expects FIRST:DOWN:PERIOD in seconds (got `{value}`)"
        ));
    };
    let secs = |name: &str, raw: &str| -> Result<f64, String> {
        let v: f64 = raw
            .parse()
            .map_err(|_| format!("flap {name} expects seconds (got `{raw}`)"))?;
        if !(0.0..=3_600.0).contains(&v) {
            return Err(format!("flap {name} must be within [0, 3600] s (got {v})"));
        }
        Ok(v)
    };
    let first = SimTime::from_nanos((secs("FIRST", first)? * 1e9).round() as u64);
    let down_for = SimDuration::from_secs_f64(secs("DOWN", down)?);
    let period_for = SimDuration::from_secs_f64(secs("PERIOD", period)?);
    if down_for == SimDuration::ZERO {
        return Err(format!("flap DOWN must be at least 1 ns (got `{down}` s)"));
    }
    if period_for <= down_for {
        return Err(format!(
            "flap PERIOD ({period}) must exceed DOWN ({down}) so the link comes back up"
        ));
    }
    Ok(FlapSpec {
        first_down: first,
        down_for,
        period: period_for,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_default_and_draws_nothing() {
        assert_eq!(Impairment::default(), Impairment::NONE);
        assert!(Impairment::NONE.is_none());
        assert!(!Impairment::NONE.is_stochastic());
    }

    #[test]
    fn parse_key_value_list() {
        let spec = Impairment::parse("loss=0.02, dup=0.001,corrupt=0.005").unwrap();
        assert_eq!(spec.loss_ppm, 20_000);
        assert_eq!(spec.dup_ppm, 1_000);
        assert_eq!(spec.corrupt_ppm, 5_000);
        assert_eq!(spec.reorder_ppm, 0);
        assert!(spec.flap.is_none());
    }

    #[test]
    fn parse_reorder_defaults_jitter() {
        let spec = Impairment::parse("reorder=0.05").unwrap();
        assert_eq!(spec.reorder_ppm, 50_000);
        assert_eq!(spec.jitter, SimDuration::from_millis(1));
        let explicit = Impairment::parse("reorder=0.05,jitter=2.5").unwrap();
        assert_eq!(explicit.jitter, SimDuration::from_micros(2_500));
    }

    #[test]
    fn parse_flap_schedule() {
        let spec = Impairment::parse("flap=3:0.2:5").unwrap();
        let flap = spec.flap.unwrap();
        assert_eq!(flap.first_down, SimTime::from_secs(3));
        assert_eq!(flap.down_for, SimDuration::from_millis(200));
        assert_eq!(flap.period, SimDuration::from_secs(5));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Impairment::parse("loss=1.5").is_err());
        assert!(Impairment::parse("loss=-0.1").is_err());
        assert!(Impairment::parse("warble=1").is_err());
        assert!(Impairment::parse("flap=1:2").is_err());
        assert!(Impairment::parse("flap=1:5:3").is_err(), "period <= down");
        assert!(Impairment::parse("loss").is_err(), "missing =value");
    }

    #[test]
    fn every_preset_parses_by_name() {
        for (name, spec) in Impairment::presets() {
            assert_eq!(Impairment::parse(name).unwrap(), *spec, "preset {name}");
            assert!(!spec.is_none(), "preset {name} must impair something");
        }
    }

    #[test]
    fn display_round_trips() {
        for (name, spec) in Impairment::presets() {
            let rendered = spec.to_string();
            let reparsed = Impairment::parse(&rendered).unwrap();
            assert_eq!(reparsed, *spec, "preset {name} via `{rendered}`");
        }
        assert_eq!(Impairment::NONE.to_string(), "none");
    }

    #[test]
    fn flap_windows_are_periodic() {
        let flap = FlapSpec {
            first_down: SimTime::from_secs(2),
            down_for: SimDuration::from_millis(100),
            period: SimDuration::from_secs(1),
        };
        assert!(!flap.is_down(SimTime::from_millis(1_999)));
        assert!(flap.is_down(SimTime::from_secs(2)));
        assert!(flap.is_down(SimTime::from_millis(2_099)));
        assert!(!flap.is_down(SimTime::from_millis(2_100)));
        assert!(flap.is_down(SimTime::from_millis(3_050)), "next period");
        assert!(!flap.is_down(SimTime::from_millis(3_500)));
    }
}
