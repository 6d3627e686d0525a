//! The `lint` job in `.github/workflows/ci.yml` runs the workspace's
//! `--lib --bins` clippy gate on this package, which reads the root
//! `clippy.toml` above it. The job passes only if clippy rejects the
//! package, each line marked `fires:` draws exactly the lint it names,
//! and nothing else fires.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

pub fn known_bad(
    ids: Option<u32>,
    parsed: Result<u32, String>,
    seen: &HashMap<u32, u32>,
    mine: &HashSet<u32>,
    theirs: &HashSet<u32>,
) -> u32 {
    let a = ids.unwrap(); // fires: clippy::unwrap_used
    let b = parsed.expect("parsed"); // fires: clippy::expect_used
    let _started = Instant::now(); // fires: clippy::disallowed_methods
    let c: u32 = seen.values().sum(); // fires: clippy::disallowed_methods
    let mut d = 0;
    for (k, v) in seen { // fires: clippy::iter_over_hash_type
        d += k + v;
    }
    let e: u32 = mine.difference(theirs).sum(); // fires: clippy::disallowed_methods
    a + b + c + d + e
}
