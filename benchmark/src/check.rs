//! Output checks: references recorded from a known-good commit, and the
//! tally of attempted and failed ops that becomes `fail_frac`.
//!
//! A reference file holds one entry per line, `<seed> <key> <value...>`;
//! `#` starts a comment. Seeds without an entry still get the checks
//! that hold for every seed (no errors, no failure rows, no races, a
//! resumed report equal to the cold one).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a, 64 bit: the digest references store for report bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recorded reference outputs, by (seed, key).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Refs {
    entries: BTreeMap<(u64, String), String>,
}

impl Refs {
    pub fn parse(text: &str) -> Result<Refs, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let (Some(seed), Some(key), Some(value)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "reference line {}: expected `<seed> <key> <value>`",
                    n + 1
                ));
            };
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("reference line {}: bad seed '{seed}'", n + 1))?;
            entries.insert((seed, key.to_string()), value.to_string());
        }
        Ok(Refs { entries })
    }

    pub fn get(&self, seed: u64, key: &str) -> Option<&str> {
        self.entries
            .get(&(seed, key.to_string()))
            .map(String::as_str)
    }

    pub fn has_seed(&self, seed: u64) -> bool {
        self.entries.keys().any(|(s, _)| *s == seed)
    }

    /// Replace every entry of `seed` with `fresh`.
    pub fn replace_seed(&mut self, seed: u64, fresh: Vec<(String, String)>) {
        self.entries.retain(|(s, _), _| *s != seed);
        for (key, value) in fresh {
            self.entries.insert((seed, key), value);
        }
    }

    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            let _ = writeln!(out, "# {line}");
        }
        for ((seed, key), value) in &self.entries {
            let _ = writeln!(out, "{seed} {key} {value}");
        }
        out
    }

    pub fn write(&self, path: &Path, header: &str) -> Result<(), String> {
        std::fs::write(path, self.render(header))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Compare an output against its reference, when one is recorded.
pub fn against(refs: &Refs, seed: u64, key: &str, got: &str) -> Result<(), String> {
    match refs.get(seed, key) {
        Some(want) if want != got => Err(format!("{key}: got {got}, reference {want}")),
        _ => Ok(()),
    }
}

/// Tally of checked ops. An op fails on an error or on any output that
/// differs from what it must be.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub notes: Vec<String>,
}

impl Checker {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn refs_round_trip_and_replace() {
        let mut refs = Refs::parse("# c\n0 report 00ff\n3 a/b 1 2 3\n").unwrap();
        assert_eq!(refs.get(3, "a/b"), Some("1 2 3"));
        assert!(refs.has_seed(0) && !refs.has_seed(1));
        refs.replace_seed(0, vec![("report".into(), "0100".into())]);
        let again = Refs::parse(&refs.render("header")).unwrap();
        assert_eq!(again, refs);
        assert_eq!(again.get(0, "report"), Some("0100"));
        assert!(Refs::parse("x report 1").is_err());
        assert!(Refs::parse("1 report").is_err());
    }

    #[test]
    fn mismatch_counts_as_failure() {
        let refs = Refs::parse("5 report abc").unwrap();
        let mut c = Checker::default();
        c.record("same", against(&refs, 5, "report", "abc"));
        c.record("unrecorded seed", against(&refs, 6, "report", "zzz"));
        c.record("differs", against(&refs, 5, "report", "abd"));
        assert_eq!((c.attempted, c.failed), (3, 1));
        assert!((c.fail_frac() - 1.0 / 3.0).abs() < 1e-12);
        assert!(c.notes[0].contains("differs"));
    }
}
