//! Fixture: the documented `grow` cold path was renamed away.

pub fn expand() {}
