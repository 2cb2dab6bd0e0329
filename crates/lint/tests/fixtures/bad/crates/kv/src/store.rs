//! Seeded panic-freedom violation: serving-path library code unwraps.

pub fn head(xs: &[u8]) -> u8 {
    *xs.first().unwrap()
}

/// Seeded dead public API: nothing in the fixture calls it.
pub fn tail_byte(xs: &[u8]) -> Option<u8> {
    xs.last().copied()
}
