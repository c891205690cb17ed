//! The run's output: one human-readable line per metric, by name with
//! its unit, then one JSON object as the last line of standard output.

use std::fmt::Write as _;

use crate::workloads::Workload;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: Option<String>,
}

impl Metric {
    /// A metric without a note.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            note: None,
        }
    }

    /// Adds context printed beside the value (sample counts, the
    /// percentile chosen); it does not enter the JSON.
    #[must_use]
    pub fn with_note(mut self, note: String) -> Self {
        self.note = Some(note);
        self
    }
}

/// Collects a run's metrics and notes and prints them.
pub struct Report {
    metrics: Vec<Metric>,
    extras: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report, printing the run's parameters.
    #[must_use]
    pub fn new(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Self {
        println!(
            "perfbench workload={} seed={seed} seconds={seconds} trace={} solvers={} limit_ms={}",
            w.name,
            u8::from(trace),
            w.solvers.join(","),
            w.limit_ms
        );
        Report {
            metrics: Vec::new(),
            extras: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A metric that enters the JSON result.
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// A metric printed for people but kept out of the JSON result
    /// (one that can be 0, which a relative bound cannot compare).
    pub fn extra(&mut self, m: Metric) {
        self.extras.push(m);
    }

    /// A line printed to standard error.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints everything; the JSON object is the last line of
    /// standard output.
    pub fn finish(self, attempted: usize, failed: usize, deterministic: bool) {
        for line in &self.notes {
            eprintln!("{line}");
        }
        for m in self.metrics.iter().chain(&self.extras) {
            match &m.note {
                Some(note) => println!("{:<30} {:>16} {:<6} ({note})", m.name, m.value, m.unit),
                None => println!("{:<30} {:>16} {}", m.name, m.value, m.unit),
            }
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0 && deterministic && attempted > 0
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
