//! Unified parsing for the `LECA_*` runtime environment variables.
//!
//! Every knob the workspace reads from the environment (`LECA_BACKEND`,
//! `LECA_THREADS`, `LECA_CACHE_DIR`, and the bench binaries' `LECA_FAST`,
//! `LECA_EPOCHS` and `LECA_FULL`) used to hand-roll its own
//! `std::env::var` + parse + filter chain, each with subtly different
//! error behavior. This module is the single parsing
//! layer: typed errors say *which* variable was bad and what was expected,
//! and each consumer decides its own fallback policy (the historical
//! contract — a garbage value degrades to the default rather than
//! aborting — is expressed as `.ok()` at the call site, visibly).
//!
//! Caching is deliberately **not** here: the once-per-process semantics
//! (and their `refresh_*` test hooks) belong to the consumers —
//! [`crate::backend::active`], [`crate::parallel::num_threads`] — because
//! each caches a different derived decision, not the raw string.

use std::fmt;

/// Why an environment variable could not be interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The variable is unset (or not valid Unicode).
    NotSet {
        /// Variable name.
        key: &'static str,
    },
    /// The variable is set to something the consumer cannot interpret.
    Invalid {
        /// Variable name.
        key: &'static str,
        /// The offending value, verbatim.
        value: String,
        /// Human-readable description of what would have parsed.
        expected: &'static str,
    },
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::NotSet { key } => write!(f, "{key} is not set"),
            EnvError::Invalid {
                key,
                value,
                expected,
            } => write!(f, "{key}={value:?} is invalid (expected {expected})"),
        }
    }
}

impl std::error::Error for EnvError {}

/// The raw string value of `key`, trimmed.
///
/// # Errors
///
/// [`EnvError::NotSet`] when the variable is absent or not Unicode.
#[allow(
    clippy::disallowed_methods,
    reason = "the single env parsing layer: every LECA_* knob is read and validated here"
)]
pub fn raw(key: &'static str) -> Result<String, EnvError> {
    match std::env::var(key) {
        Ok(v) => Ok(v.trim().to_string()),
        Err(_) => Err(EnvError::NotSet { key }),
    }
}

/// `key` parsed as a strictly positive integer (`LECA_THREADS=4`).
///
/// # Errors
///
/// [`EnvError::NotSet`] when absent; [`EnvError::Invalid`] when the value
/// does not parse as a `u64` or is zero.
pub fn positive_u64(key: &'static str) -> Result<u64, EnvError> {
    let v = raw(key)?;
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(EnvError::Invalid {
            key,
            value: v,
            expected: "a positive integer",
        }),
    }
}

/// `key` parsed as an on/off flag (`LECA_FAST=1`).
///
/// `1`/`true`/`on`/`yes` are true; `0`/`false`/`off`/`no` are false
/// (case-insensitive).
///
/// # Errors
///
/// [`EnvError::NotSet`] when absent; [`EnvError::Invalid`] otherwise.
pub fn flag(key: &'static str) -> Result<bool, EnvError> {
    let v = raw(key)?;
    const TRUE: &[&str] = &["1", "true", "on", "yes"];
    const FALSE: &[&str] = &["0", "false", "off", "no"];
    if TRUE.iter().any(|c| c.eq_ignore_ascii_case(&v)) {
        Ok(true)
    } else if FALSE.iter().any(|c| c.eq_ignore_ascii_case(&v)) {
        Ok(false)
    } else {
        Err(EnvError::Invalid {
            key,
            value: v,
            expected: "a boolean flag (1/0, on/off, true/false)",
        })
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests set LECA_* values to drive the parser"
)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Process-global env mutation; serialize.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_var<T>(key: &'static str, value: Option<&str>, body: impl FnOnce() -> T) -> T {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let old = std::env::var(key).ok();
        match value {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
        let out = body();
        match old {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
        out
    }

    #[test]
    fn positive_u64_accepts_and_rejects() {
        with_var("LECA_RT_ENV_TEST_N", Some("8"), || {
            assert_eq!(positive_u64("LECA_RT_ENV_TEST_N"), Ok(8));
        });
        with_var("LECA_RT_ENV_TEST_N", Some("0"), || {
            assert!(matches!(
                positive_u64("LECA_RT_ENV_TEST_N"),
                Err(EnvError::Invalid { .. })
            ));
        });
        with_var("LECA_RT_ENV_TEST_N", Some("lots"), || {
            assert!(matches!(
                positive_u64("LECA_RT_ENV_TEST_N"),
                Err(EnvError::Invalid { .. })
            ));
        });
        with_var("LECA_RT_ENV_TEST_N", None, || {
            assert_eq!(
                positive_u64("LECA_RT_ENV_TEST_N"),
                Err(EnvError::NotSet {
                    key: "LECA_RT_ENV_TEST_N"
                })
            );
        });
    }

    #[test]
    fn flag_parses_common_spellings() {
        for (v, want) in [("1", true), ("ON", true), ("0", false), ("off", false)] {
            with_var("LECA_RT_ENV_TEST_F", Some(v), || {
                assert_eq!(flag("LECA_RT_ENV_TEST_F"), Ok(want));
            });
        }
        with_var("LECA_RT_ENV_TEST_F", Some("maybe"), || {
            assert!(flag("LECA_RT_ENV_TEST_F").is_err());
        });
    }

    #[test]
    fn raw_trims_whitespace() {
        with_var("LECA_RT_ENV_TEST_R", Some("  avx2 "), || {
            assert_eq!(raw("LECA_RT_ENV_TEST_R").as_deref(), Ok("avx2"));
        });
    }

    #[test]
    fn errors_render_key_and_value() {
        let e = EnvError::Invalid {
            key: "LECA_THREADS",
            value: "many".into(),
            expected: "a positive integer",
        };
        let s = e.to_string();
        assert!(s.contains("LECA_THREADS") && s.contains("many"), "{s}");
    }
}
