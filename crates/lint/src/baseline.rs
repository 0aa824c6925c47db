//! The committed violation baseline and its ratchet semantics.
//!
//! `lint-baseline.toml` records, per `"file:rule"` key, how many
//! violations existed when the baseline was last written. The ratchet
//! enforces *exact* agreement in `--deny` mode:
//!
//! * count **above** baseline → new debt, always an error;
//! * count **below** baseline → the code improved, so the baseline must
//!   be re-written (`--write-baseline`) in the same change. This is what
//!   makes the ratchet one-way: once a violation is fixed and the
//!   baseline tightened, re-introducing it is *above* baseline and fails.
//!
//! The file is a strict subset of TOML (one `[counts]` table of
//! quoted-string keys to integers) parsed here by hand so the linter
//! stays dependency-free.

use std::collections::BTreeMap;

/// Parsed baseline: `"path:rule"` → recorded violation count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    pub counts: BTreeMap<String, usize>,
}

/// One divergence between the current scan and the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// More violations than recorded: `(key, baseline, current)`.
    Regression(String, usize, usize),
    /// Fewer violations than recorded; baseline must be tightened.
    Stale(String, usize, usize),
}

impl Baseline {
    /// Parses the baseline format. Unknown lines are errors — a corrupted
    /// baseline must never silently bless debt.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line == "[counts]" {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `\"key\" = n`", lineno + 1))?;
            let key = key.trim();
            let key = key
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("line {}: key must be quoted", lineno + 1))?;
            let n: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("line {}: count must be an integer", lineno + 1))?;
            if counts.insert(key.to_owned(), n).is_some() {
                return Err(format!("line {}: duplicate key {key:?}", lineno + 1));
            }
        }
        Ok(Baseline { counts })
    }

    /// Renders the baseline file, with a header documenting the totals.
    pub fn render(counts: &BTreeMap<String, usize>, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("\n[counts]\n");
        for (key, n) in counts {
            if *n > 0 {
                out.push_str(&format!("{key:?} = {n}\n"));
            }
        }
        out
    }

    /// Compares a scan against the baseline. Keys absent from either side
    /// count as zero there.
    pub fn compare(&self, current: &BTreeMap<String, usize>) -> Vec<Delta> {
        let mut deltas = Vec::new();
        let keys: std::collections::BTreeSet<&String> =
            self.counts.keys().chain(current.keys()).collect();
        for key in keys {
            let base = self.counts.get(key).copied().unwrap_or(0);
            let cur = current.get(key).copied().unwrap_or(0);
            if cur > base {
                deltas.push(Delta::Regression(key.clone(), base, cur));
            } else if cur < base {
                deltas.push(Delta::Stale(key.clone(), base, cur));
            }
        }
        deltas
    }

    /// Total recorded violations.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn parse_render_roundtrip() {
        let c = counts(&[("a.rs:lock-order-cycles", 3), ("b.rs:lock-hygiene", 1)]);
        let text = Baseline::render(&c, "header line");
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.counts, c);
        assert!(text.starts_with("# header line"));
    }

    #[test]
    fn zero_counts_are_not_written() {
        let c = counts(&[("a.rs:r", 0), ("b.rs:r", 2)]);
        let text = Baseline::render(&c, "");
        assert!(!text.contains("a.rs"));
        assert!(text.contains("b.rs"));
    }

    #[test]
    fn regression_and_stale_detection() {
        let base = Baseline {
            counts: counts(&[("a.rs:r", 2), ("gone.rs:r", 1)]),
        };
        let now = counts(&[("a.rs:r", 3), ("new.rs:r", 1)]);
        let deltas = base.compare(&now);
        assert!(deltas.contains(&Delta::Regression("a.rs:r".into(), 2, 3)));
        assert!(deltas.contains(&Delta::Regression("new.rs:r".into(), 0, 1)));
        assert!(deltas.contains(&Delta::Stale("gone.rs:r".into(), 1, 0)));
    }

    #[test]
    fn corrupted_baseline_is_an_error() {
        assert!(Baseline::parse("not a baseline").is_err());
        assert!(Baseline::parse("\"k\" = x").is_err());
        assert!(Baseline::parse("\"k\" = 1\n\"k\" = 2").is_err());
        assert!(Baseline::parse("k = 1").is_err());
    }
}
