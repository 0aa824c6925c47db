// Helper half of the transitive no-panic fixture pair: outside a protocol
// crate its own unwrap is nobody's to report at the definition, so the
// call from protocol code is the finding.

pub fn hottest_sample(xs: &[u64]) -> u64 {
    xs.iter().copied().max().unwrap()
}

pub fn safe_sample(xs: &[u64]) -> u64 {
    xs.iter().copied().max().unwrap_or(0)
}
