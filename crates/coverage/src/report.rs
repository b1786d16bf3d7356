//! Coverage report types.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use twm_mem::{Fault, FaultClass};

/// Coverage of one fault class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCoverage {
    /// Faults of this class that were evaluated.
    pub total: usize,
    /// Faults of this class that were detected.
    pub detected: usize,
}

impl ClassCoverage {
    /// Detected fraction (1.0 when the class is empty).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// Fault counts by class and by coupling scope: what a report holds
/// besides which faults escaped. Counts of disjoint parts of a universe
/// add up to the whole universe's in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Faults per class (`FaultClass as usize`, the order of
    /// `FaultClass::all`), then per [`scope`] at `5 + scope`.
    counts: [usize; 8],
}

/// 0 for a one-cell fault, 1 for an intra-word and 2 for an inter-word
/// coupling fault.
fn scope(fault: &Fault) -> usize {
    usize::from(fault.is_intra_word()) + 2 * usize::from(fault.is_inter_word())
}

impl Tally {
    /// Counts one fault.
    fn count(&mut self, fault: &Fault) {
        self.counts[fault.class() as usize] += 1;
        self.counts[5 + scope(fault)] += 1;
    }

    /// One fault of class index `class` and [`scope`] `scope`, packed for
    /// [`Tally::add_packed`]: byte `i` of the `u64` counts toward
    /// `counts[i]`. Up to 255 packed faults can be summed before a byte
    /// overflows.
    pub(crate) fn packed(class: usize, scope: usize) -> u64 {
        (1 << (8 * class)) + (1 << (8 * (5 + scope)))
    }

    /// Adds a sum of [`Tally::packed`] faults.
    pub(crate) fn add_packed(&mut self, packed: u64) {
        for (at, count) in self.counts.iter_mut().enumerate() {
            *count += (packed >> (8 * at) & 0xFF) as usize;
        }
    }

    /// Adds another tally into this one.
    pub(crate) fn merge(&mut self, other: &Tally) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }
}

/// Per-class and aggregate fault coverage of one march test.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Name of the evaluated test.
    pub test_name: String,
    /// Coverage per fault class.
    pub per_class: BTreeMap<FaultClass, ClassCoverage>,
    /// Coverage of intra-word coupling faults (aggressor and victim in the
    /// same word), across all coupling classes.
    pub intra_word: ClassCoverage,
    /// Coverage of inter-word coupling faults, across all coupling classes.
    pub inter_word: ClassCoverage,
    /// Faults that escaped detection.
    pub undetected: Vec<Fault>,
}

impl CoverageReport {
    /// Creates an empty report for a test name.
    #[must_use]
    pub fn new(test_name: &str) -> Self {
        Self {
            test_name: test_name.to_string(),
            ..Self::default()
        }
    }

    /// Records one evaluated fault.
    pub fn record(&mut self, fault: Fault, detected: bool) {
        self.record_all([(fault, detected)]);
    }

    /// Records evaluated faults in order, as [`CoverageReport::record`]
    /// one by one would, but tallies the classes locally so the class map
    /// is touched once per class instead of once per fault.
    pub(crate) fn record_all(&mut self, verdicts: impl IntoIterator<Item = (Fault, bool)>) {
        let mut tally = Tally::default();
        let mut undetected = Vec::new();
        for (fault, detected) in verdicts {
            tally.count(&fault);
            if !detected {
                undetected.push(fault);
            }
        }
        self.record_tally(&tally, undetected);
    }

    /// Records the faults `tally` counts, of which exactly `undetected`
    /// (in universe order) escaped.
    pub(crate) fn record_tally(&mut self, tally: &Tally, undetected: Vec<Fault>) {
        let mut counts = tally.counts.map(|total| ClassCoverage {
            total,
            detected: total,
        });
        for fault in &undetected {
            counts[fault.class() as usize].detected -= 1;
            counts[5 + scope(fault)].detected -= 1;
        }
        let [classes @ .., _, intra_word, inter_word] = counts;
        for (class, counts) in FaultClass::all().into_iter().zip(classes) {
            if counts.total > 0 {
                let entry = self.per_class.entry(class).or_default();
                entry.total += counts.total;
                entry.detected += counts.detected;
            }
        }
        for (scope, counts) in [
            (&mut self.intra_word, intra_word),
            (&mut self.inter_word, inter_word),
        ] {
            scope.total += counts.total;
            scope.detected += counts.detected;
        }
        self.undetected.extend(undetected);
    }

    /// Number of evaluated faults.
    #[must_use]
    pub fn total_faults(&self) -> usize {
        self.per_class.values().map(|c| c.total).sum()
    }

    /// Number of detected faults.
    #[must_use]
    pub fn detected_faults(&self) -> usize {
        self.per_class.values().map(|c| c.detected).sum()
    }

    /// Overall detected fraction (1.0 when no faults were evaluated).
    #[must_use]
    pub fn total_coverage(&self) -> f64 {
        let total = self.total_faults();
        if total == 0 {
            1.0
        } else {
            self.detected_faults() as f64 / total as f64
        }
    }

    /// Coverage of one class (1.0 when no fault of that class was evaluated).
    #[must_use]
    pub fn class_coverage(&self, class: FaultClass) -> f64 {
        self.per_class
            .get(&class)
            .copied()
            .unwrap_or_default()
            .fraction()
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fault coverage of {}", self.test_name)?;
        writeln!(
            f,
            "  {:<6} {:>8} {:>10} {:>9}",
            "class", "faults", "detected", "coverage"
        )?;
        for (class, coverage) in &self.per_class {
            writeln!(
                f,
                "  {:<6} {:>8} {:>10} {:>8.2}%",
                class.to_string(),
                coverage.total,
                coverage.detected,
                coverage.fraction() * 100.0
            )?;
        }
        if self.intra_word.total > 0 {
            writeln!(
                f,
                "  intra-word CFs: {}/{} ({:.2}%)",
                self.intra_word.detected,
                self.intra_word.total,
                self.intra_word.fraction() * 100.0
            )?;
        }
        if self.inter_word.total > 0 {
            writeln!(
                f,
                "  inter-word CFs: {}/{} ({:.2}%)",
                self.inter_word.detected,
                self.inter_word.total,
                self.inter_word.fraction() * 100.0
            )?;
        }
        write!(
            f,
            "  total: {}/{} ({:.2}%)",
            self.detected_faults(),
            self.total_faults(),
            self.total_coverage() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_mem::{BitAddress, Transition};

    #[test]
    fn recording_updates_class_and_word_scopes() {
        let mut report = CoverageReport::new("sample");
        report.record(Fault::stuck_at(BitAddress::new(0, 0), true), true);
        report.record(Fault::stuck_at(BitAddress::new(0, 1), false), false);
        report.record(
            Fault::coupling_inversion(
                BitAddress::new(0, 0),
                BitAddress::new(0, 1),
                Transition::Rising,
            ),
            true,
        );
        report.record(
            Fault::coupling_inversion(
                BitAddress::new(0, 0),
                BitAddress::new(1, 1),
                Transition::Rising,
            ),
            false,
        );

        assert_eq!(report.total_faults(), 4);
        assert_eq!(report.detected_faults(), 2);
        assert_eq!(report.class_coverage(FaultClass::Saf), 0.5);
        assert_eq!(report.class_coverage(FaultClass::Cfin), 0.5);
        assert_eq!(report.class_coverage(FaultClass::Tf), 1.0);
        assert_eq!(report.intra_word.total, 1);
        assert_eq!(report.intra_word.detected, 1);
        assert_eq!(report.inter_word.total, 1);
        assert_eq!(report.inter_word.detected, 0);
        assert_eq!(report.undetected.len(), 2);
        assert!((report.total_coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_full_coverage_by_convention() {
        let report = CoverageReport::new("empty");
        assert_eq!(report.total_coverage(), 1.0);
        assert_eq!(report.class_coverage(FaultClass::Saf), 1.0);
    }

    #[test]
    fn display_contains_class_rows() {
        let mut report = CoverageReport::new("sample");
        report.record(Fault::stuck_at(BitAddress::new(0, 0), true), true);
        let text = report.to_string();
        assert!(text.contains("SAF"));
        assert!(text.contains("100.00%"));
    }
}
