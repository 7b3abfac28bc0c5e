//! Correctness checks: every check a run makes counts as attempted, and
//! each failure is kept (with its description) for the report.

#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; returns whether it passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    /// Records one check of `a == b`.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) -> bool {
        let ok = a == b;
        self.check(ok, || format!("{what}: {a:?} != {b:?}"))
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.max(1)
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// FNV-1a over the bit patterns of every vector, in order — the
/// final-parameter fingerprint the bit-identity checks compare.
pub fn params_hash<'a>(vectors: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vectors {
        for x in v {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The bit patterns of a run's variance estimates.
pub fn estimate_bits(estimates: &[f32]) -> Vec<u32> {
    estimates.iter().map(|e| e.to_bits()).collect()
}

/// A decision sequence as a `0`/`1` string.
pub fn decision_string(decisions: &[bool]) -> String {
    decisions
        .iter()
        .map(|&d| if d { '1' } else { '0' })
        .collect()
}
