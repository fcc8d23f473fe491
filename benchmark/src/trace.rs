//! Spans recorded by the benchmark around the calls it makes into each
//! layer, kept in memory and written as a Chrome trace when the op ends.
//! Spans inside the program are ROADMAP item 4, not this package.

use std::time::Instant;

use crate::json::Json;

/// One span: a named interval on the op's clock, the layer it belongs to
/// and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The layer (crate or module) the call went into.
    pub layer: String,
    pub start_us: f64,
    pub dur_us: f64,
    pub id: u32,
    pub parent: Option<u32>,
    /// Laid out from the program's returned report rather than timed
    /// around a call: positions are reconstructions, durations are the
    /// program's own.
    pub synthesised: bool,
}

/// Times every call it wraps; keeps the span only when tracing is on, so
/// the untraced rounds run the same code minus the bookkeeping.
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_us = self.now_us();
        let out = f();
        let dur_us = self.now_us() - start_us;
        self.push(name, layer, parent, start_us, dur_us, false);
        (out, dur_us / 1e6)
    }

    /// Records a span laid out from a report; returns its id.
    pub fn synth(
        &mut self,
        name: &str,
        layer: &str,
        parent: Option<u32>,
        start_us: f64,
        dur_us: f64,
    ) -> u32 {
        self.push(name, layer, parent, start_us, dur_us, true)
    }

    fn push(
        &mut self,
        name: &str,
        layer: &str,
        parent: Option<u32>,
        start_us: f64,
        dur_us: f64,
        synthesised: bool,
    ) -> u32 {
        let id = self.spans.len() as u32;
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                layer: layer.to_string(),
                start_us,
                dur_us,
                id,
                parent,
                synthesised,
            });
        }
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Share of `[0, wall_us]` covered by the top-level spans (those with no
/// parent that were timed, not synthesised).
pub fn top_level_coverage(spans: &[Span], wall_us: f64) -> f64 {
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && !s.synthesised)
        .map(|s| s.dur_us)
        .sum();
    if wall_us > 0.0 {
        covered / wall_us
    } else {
        0.0
    }
}

/// Spans as Chrome trace "complete" events. `pid` separates the traced op
/// from the layer replays in one file; the op id every span of a request
/// shares is `op`.
pub fn chrome_events(spans: &[Span], pid: u32, op: &str) -> Vec<Json> {
    spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name.as_str())),
                ("cat", Json::str(s.layer.as_str())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us)),
                ("pid", Json::Num(f64::from(pid))),
                // Synthesised spans go on their own track so reconstructed
                // positions never visually nest under timed ones by accident.
                ("tid", Json::Num(if s.synthesised { 2.0 } else { 1.0 })),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("op", Json::str(op)),
                        ("synthesised", Json::Bool(s.synthesised)),
                    ]),
                ),
            ])
        })
        .collect()
}
