//! Property tests for the `--impair` spec language: `Impairment::parse`
//! never panics, and the `Display` rendering (which manifests and journal
//! headers print) parses back to the same spec.

use proptest::prelude::*;
use snake_netsim::Impairment;

/// Fragments that exercise every branch of the parser, glued at random.
const TOKENS: &[&str] = &[
    "loss", "dup", "corrupt", "reorder", "jitter", "flap", "none", "chaos", "lossy", "=", "=", ",",
    ",", ":", " ", "0", "1", "0.5", "1e-9", "3600", "60000", "1e309", "-1", "NaN", "inf", ".", "é",
    "\u{0}",
];

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..TOKENS.len(), 0..16)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// A fraction in `[0, 1]` with up to nine decimals — finer than the
/// parts-per-million the spec stores, so parsing has to round.
fn arb_fraction() -> impl Strategy<Value = String> {
    (0u64..=1_000_000_000).prop_map(|n| format!("{}", n as f64 / 1e9))
}

/// Seconds in `[0, 3600]` with sub-nanosecond digits.
fn arb_secs() -> impl Strategy<Value = f64> {
    (0u64..=36_000_000_000_000).prop_map(|n| n as f64 / 1e10)
}

/// One `key=value` part, always within the parser's ranges except for
/// flap schedules, which may be rejected (DOWN zero, PERIOD not above it).
fn arb_part() -> impl Strategy<Value = String> {
    (
        0usize..6,
        arb_fraction(),
        (0u64..=600_000_000_000).prop_map(|n| if n % 4 == 0 { 0 } else { n }),
        (arb_secs(), arb_secs(), arb_secs()),
    )
        .prop_map(|(key, fraction, jitter, (first, down, period))| match key {
            0 => format!("loss={fraction}"),
            1 => format!("dup={fraction}"),
            2 => format!("corrupt={fraction}"),
            3 => format!("reorder={fraction}"),
            // A quarter of the jitters are zero: with `reorder` on, that
            // is the value the 1 ms default must not replace.
            4 => format!("jitter={}", jitter as f64 / 1e7),
            _ => {
                let (down, period) = (down.min(period), down.max(period));
                format!("flap={first}:{down}:{period}")
            }
        })
}

fn arb_spec_text() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_part(), 0..6).prop_map(|parts| parts.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary text yields a spec or an error, never a panic.
    #[test]
    fn parse_never_panics(text in arb_text(), bytes in prop::collection::vec(any::<u8>(), 0..24)) {
        let _ = Impairment::parse(&text);
        let _ = Impairment::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Rendering a parsed spec and parsing it again gives the same spec.
    #[test]
    fn display_round_trips(text in arb_spec_text()) {
        if let Ok(spec) = Impairment::parse(&text) {
            let rendered = spec.to_string();
            prop_assert_eq!(
                Impairment::parse(&rendered),
                Ok(spec),
                "`{}` rendered as `{}`",
                text,
                rendered
            );
        }
    }
}

#[test]
fn edge_cases_round_trip() {
    for text in [
        "none",
        "",
        "reorder=0.01,jitter=0",
        "jitter=0",
        "jitter=0.0000001",
        "flap=0:0.0000000001:1",
    ] {
        if let Ok(spec) = Impairment::parse(text) {
            assert_eq!(
                Impairment::parse(&spec.to_string()),
                Ok(spec),
                "`{text}` rendered as `{spec}`"
            );
        }
    }
    assert_eq!(Impairment::parse("none"), Ok(Impairment::NONE));
}
