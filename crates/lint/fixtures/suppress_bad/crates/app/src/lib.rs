//! Suppression hygiene violations: a reason-less waiver and an unknown rule.

pub fn reasonless(xs: &[u32]) -> u32 {
    // lint: allow(lock-order)
    xs.iter().sum()
}

pub fn unknown_rule() -> u32 {
    // lint: allow(no-such-rule) the rule name above does not exist.
    7
}
