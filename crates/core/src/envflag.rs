//! Shared `CCAL_*` environment-flag parsing.
//!
//! Every process-wide tunable in the toolkit — `CCAL_POR`,
//! `CCAL_PREFIX_SHARE`, `CCAL_PREFIX_DEEP`, `CCAL_BYTECODE`,
//! `CCAL_SHARE_SEMANTIC`, and the numeric `CCAL_WORKERS` — accepts the
//! same value grammar:
//!
//! * unset — the flag's default applies;
//! * `0` — the flag is off (the differential-debugging escape hatch);
//! * any other non-negative integer — the flag is on;
//! * anything else — a warning is printed to stderr **once per flag name**
//!   and the variable is ignored (the default applies).
//!
//! The grammar used to be copy-pasted per flag (five private
//! `parse_*`/`warn_*_once` pairs across `par`, `por` and `prefix`), which
//! let parsing behavior drift as flags were added. [`bool_flag`] is the
//! single implementation every boolean flag now routes through, and
//! [`warn_ignored`] is the one warn-once path shared with the numeric
//! `CCAL_WORKERS` parser.

use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Parses a boolean flag value: `Some(false)` for `0`, `Some(true)` for
/// any other non-negative integer, `None` for anything unparseable.
pub fn parse_bool(raw: &str) -> Option<bool> {
    raw.trim().parse::<u64>().ok().map(|n| n != 0)
}

/// Per-name cache of resolved flag values: each flag's environment
/// variable is read and parsed once per process, exactly like the old
/// per-flag `OnceLock`s.
fn resolved() -> &'static Mutex<HashMap<String, bool>> {
    static CACHE: OnceLock<Mutex<HashMap<String, bool>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Reads the boolean `CCAL_*` flag `name`, returning `default` when the
/// variable is unset or unparseable (warning once per name in the latter
/// case). The resolved value is cached for the lifetime of the process.
pub fn bool_flag(name: &str, default: bool) -> bool {
    let mut cache = resolved()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&v) = cache.get(name) {
        return v;
    }
    let v = match std::env::var(name) {
        Ok(raw) => parse_bool(&raw).unwrap_or_else(|| {
            warn_ignored(name, &raw, "0 turns the flag off");
            default
        }),
        Err(_) => default,
    };
    cache.insert(name.to_owned(), v);
    v
}

/// Warns on stderr that an unparseable flag value is ignored — at most
/// once per flag name per process. `hint` spells out what `0` means for
/// this flag (e.g. `"0 means serial"` for `CCAL_WORKERS`).
pub fn warn_ignored(name: &str, raw: &str, hint: &str) {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let warned = WARNED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut warned = warned
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if warned.insert(name.to_owned()) {
        eprintln!(
            "ccal: ignoring unparseable {name}={raw:?} (expected a \
             non-negative integer; {hint})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bool_follows_the_shared_grammar() {
        assert_eq!(parse_bool("0"), Some(false));
        assert_eq!(parse_bool(" 0 "), Some(false));
        assert_eq!(parse_bool("1"), Some(true));
        assert_eq!(parse_bool(" 16\n"), Some(true));
        assert_eq!(parse_bool("yes"), None);
        assert_eq!(parse_bool(""), None);
        assert_eq!(parse_bool("-1"), None);
        assert_eq!(parse_bool("1.5"), None);
    }

    // Each test uses a unique variable name: the per-name cache is
    // process-global and tests run concurrently.

    #[test]
    fn unset_flag_returns_the_default() {
        assert!(bool_flag("CCAL_TEST_UNSET_A", true));
        assert!(!bool_flag("CCAL_TEST_UNSET_B", false));
    }

    #[test]
    fn zero_turns_the_flag_off() {
        std::env::set_var("CCAL_TEST_ZERO", "0");
        assert!(!bool_flag("CCAL_TEST_ZERO", true));
    }

    #[test]
    fn nonzero_turns_the_flag_on() {
        std::env::set_var("CCAL_TEST_ONE", "1");
        assert!(bool_flag("CCAL_TEST_ONE", false));
        std::env::set_var("CCAL_TEST_SIXTEEN", " 16 ");
        assert!(bool_flag("CCAL_TEST_SIXTEEN", false));
    }

    #[test]
    fn garbage_is_ignored_and_the_default_applies() {
        std::env::set_var("CCAL_TEST_GARBAGE_ON", "banana");
        assert!(bool_flag("CCAL_TEST_GARBAGE_ON", true));
        std::env::set_var("CCAL_TEST_GARBAGE_OFF", "-3");
        assert!(!bool_flag("CCAL_TEST_GARBAGE_OFF", false));
    }

    #[test]
    fn the_first_read_is_cached() {
        std::env::set_var("CCAL_TEST_CACHED", "0");
        assert!(!bool_flag("CCAL_TEST_CACHED", true));
        // Changing the environment after the first read has no effect —
        // the old per-flag `OnceLock` semantics.
        std::env::set_var("CCAL_TEST_CACHED", "1");
        assert!(!bool_flag("CCAL_TEST_CACHED", true));
    }
}
