//! The configuration table: every `CYPHER_*` override is **one row**.
//!
//! A [`Knob`] names the environment variable, the config field it
//! overrides, the shape its text must have, and how to read and write
//! the field. Everything else is derived from
//! the rows: [`load`] overlays an environment on a config (reporting —
//! never swallowing — malformed values as [`EnvConfigIssue`]s),
//! [`render_config`] prints a config's effective values on the metrics
//! page, and `tests/config_surface.rs` feeds every row good and bad
//! values and keeps the README's knob table equal to the rows. The
//! server's rows live in `cypher-server` and use the same type and
//! parser.
//!
//! A row's *default* is not written in it: it is whatever the config's
//! `Default` holds, so a default is stated once too. Only the
//! `cypher-server` binary overlays the process environment; everything
//! else takes its configuration as an argument.

use crate::exec::{
    EngineConfig, FsyncMode, PartialAggMode, DEFAULT_PLAN_CACHE_SIZE, DEFAULT_WAL_COMPACT_BYTES,
};
use crate::ops::DEFAULT_MORSEL_SIZE;
use crate::planner::{PlannerMode, WcoJoinMode};
use cypher_core::MatchConfig;
use std::ffi::OsString;
use std::fmt::Write;

/// How a knob's text is checked and how its field of `C` is read and
/// written — typed per shape, so a row's parser and its accessors cannot
/// disagree. A getter answering `None` renders as `unset`; the
/// environment can only leave such a field alone, never unset it.
pub enum Access<C: 'static> {
    /// An unsigned integer within `min..=max` (the knob's bounds).
    Int {
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value (what the field's type can hold).
        max: u64,
        /// Reads the field.
        get: fn(&C) -> Option<u64>,
        /// Writes the field.
        set: fn(&mut C, u64),
    },
    /// One of `tokens`, case-insensitively, as its index (`0`/`false`/`no`
    /// read as `off`, `1`/`true`/`yes` as `on`).
    Choice {
        /// The accepted spellings, in index order.
        tokens: &'static [&'static str],
        /// Reads the field as a token index.
        get: fn(&C) -> usize,
        /// Writes the field from a token index.
        set: fn(&mut C, usize),
    },
    /// Text taken verbatim — a path or an address. Read as an OS string,
    /// so a data directory need not be UTF-8.
    Text {
        /// Reads the field.
        get: fn(&C) -> Option<OsString>,
        /// Writes the field.
        set: fn(&mut C, OsString),
    },
}

/// One malformed environment override, reported by [`load`] instead of
/// being silently replaced by the built-in default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvConfigIssue {
    /// The environment variable (e.g. `CYPHER_NUM_THREADS`).
    pub var: &'static str,
    /// The rejected value, verbatim.
    pub value: String,
    /// Why it was rejected and what was used instead.
    pub message: String,
}

impl std::fmt::Display for EnvConfigIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?}: {}", self.var, self.value, self.message)
    }
}

/// One configuration knob of a config type `C`.
pub struct Knob<C: 'static> {
    /// The environment variable.
    pub var: &'static str,
    /// The field of `C` it overrides (its name on the metrics page).
    pub field: &'static str,
    /// The shape of its text (bound included) and the field's accessors.
    pub access: Access<C>,
    /// One line for the README table.
    pub doc: &'static str,
}

impl<C> Knob<C> {
    /// Applies the variable's raw value to `cfg`. Unset and empty keep
    /// the field as it is; anything else must fit the row's shape, and
    /// the error says why it does not.
    fn apply(&self, cfg: &mut C, raw: Option<OsString>) -> Result<(), String> {
        let Some(raw) = raw.filter(|r| !r.is_empty()) else {
            return Ok(());
        };
        // A non-UTF-8 value cannot be an integer or a mode token.
        let token = || match raw.to_str() {
            Some(t) => Ok(t.trim().to_ascii_lowercase()),
            None => Err("not valid UTF-8".to_string()),
        };
        match self.access {
            Access::Text { set, .. } => set(cfg, raw),
            Access::Int { min, max, set, .. } => match token()?.parse::<u64>() {
                Ok(v) if v < min => return Err(format!("must be at least {min}, got {v}")),
                Ok(v) if v > max => return Err(format!("must be at most {max}, got {v}")),
                Ok(v) => set(cfg, v),
                Err(_) => return Err("not a valid integer".to_string()),
            },
            Access::Choice { tokens, set, .. } => {
                let t = token()?;
                let t = match t.as_str() {
                    "0" | "false" | "no" => "off",
                    "1" | "true" | "yes" => "on",
                    t => t,
                };
                match tokens.iter().position(|k| *k == t) {
                    Some(i) => set(cfg, i),
                    None => return Err(format!("expected {}", tokens.join("/"))),
                }
            }
        }
        Ok(())
    }

    /// `cfg`'s value of this knob, spelled the way its variable takes it.
    pub fn value(&self, cfg: &C) -> String {
        let shown = match self.access {
            Access::Int { get, .. } => get(cfg).map(|v| v.to_string()),
            Access::Choice { tokens, get, .. } => Some(tokens[get(cfg)].to_string()),
            Access::Text { get, .. } => get(cfg).map(|t| t.to_string_lossy().into_owned()),
        };
        shown.unwrap_or_else(|| "unset".to_string())
    }
}

/// Overlays the environment `lookup` on `cfg`, row by row. A malformed
/// value leaves its field alone and comes back as an issue naming the
/// variable, the rejected text and the default that stayed in place.
pub fn load<C>(
    rows: &[Knob<C>],
    cfg: &mut C,
    lookup: &dyn Fn(&str) -> Option<OsString>,
) -> Vec<EnvConfigIssue> {
    let mut issues = Vec::new();
    for row in rows {
        let raw = lookup(row.var);
        let value = raw.as_ref().map(|r| r.to_string_lossy().into_owned());
        if let Err(why) = row.apply(cfg, raw) {
            issues.push(EnvConfigIssue {
                var: row.var,
                value: value.unwrap_or_default(),
                message: format!("{why}; using default {}", row.value(cfg)),
            });
        }
    }
    issues
}

/// The process environment as a [`load`] lookup. Only the
/// `cypher-server` binary passes it.
pub fn process_env(var: &str) -> Option<OsString> {
    std::env::var_os(var)
}

/// Appends `cfg`'s effective value of every row to a metrics page as
/// `metric{knob="field",value="…"} 1` samples.
pub fn render_config<C>(out: &mut String, metric: &str, rows: &[Knob<C>], cfg: &C) {
    let _ = writeln!(
        out,
        "# HELP {metric} effective configuration (the labels carry the setting)"
    );
    let _ = writeln!(out, "# TYPE {metric} gauge");
    for row in rows {
        let value = row.value(cfg).replace('\\', "\\\\");
        let value = value.replace('"', "\\\"").replace('\n', "\\n");
        let _ = writeln!(
            out,
            "{metric}{{knob=\"{}\",value=\"{value}\"}} 1",
            row.field
        );
    }
}

/// The index of `v` in `all` — an enum-valued field as a token index.
fn index_of<T: PartialEq>(all: &[T], v: &T) -> usize {
    all.iter()
        .position(|m| m == v)
        .expect("every mode is listed")
}

/// An integer row's accessors for field `$f` of type `$t`.
macro_rules! int {
    ($f:ident as $t:ty, min $min:expr) => {
        Access::Int {
            min: $min,
            max: <$t>::MAX as u64,
            get: |c| Some(c.$f as u64),
            set: |c, v| c.$f = v as $t,
        }
    };
}

/// An enum row's accessors: `$tokens[i]` spells `$modes[i]`.
macro_rules! choice {
    ($f:ident, $tokens:expr, $modes:expr) => {
        Access::Choice {
            tokens: $tokens,
            get: |c| index_of(&$modes, &c.$f),
            set: |c, i| c.$f = $modes[i],
        }
    };
}

const FSYNC: [FsyncMode; 2] = [FsyncMode::Os, FsyncMode::Sync];

/// The engine's rows: every `CYPHER_*` variable `cypher-server` overlays
/// on an [`EngineConfig`]. A variable stays only while a deployment sets
/// it.
pub static ENGINE_KNOBS: [Knob<EngineConfig>; 7] = [
    Knob {
        var: "CYPHER_NUM_THREADS",
        field: "num_threads",
        access: int!(num_threads as usize, min 1),
        doc: "worker threads of the morsel pool; any count returns the same row sequence",
    },
    Knob {
        var: "CYPHER_PLAN_CACHE_SIZE",
        field: "plan_cache_size",
        access: int!(plan_cache_size as usize, min 0),
        doc: "entries of the `Database` parse+plan LRU; 0 disables it",
    },
    Knob {
        var: "CYPHER_DATA_DIR",
        field: "persistence",
        access: Access::Text {
            get: |c| c.persistence.clone().map(Into::into),
            set: |c, dir| c.persistence = Some(dir.into()),
        },
        doc: "data directory of the durable store; unset keeps the graph in memory",
    },
    Knob {
        var: "CYPHER_WAL_COMPACT_BYTES",
        field: "wal_compact_bytes",
        access: int!(wal_compact_bytes as u64, min 1),
        doc: "WAL size beyond which a commit triggers snapshot + truncation",
    },
    Knob {
        var: "CYPHER_FSYNC_MODE",
        field: "fsync_mode",
        access: choice!(fsync_mode, &["os", "sync"], FSYNC),
        doc: "when a sealed commit group is forced to stable storage",
    },
    Knob {
        var: "CYPHER_SLOW_QUERY_MS",
        field: "slow_query_ms",
        access: Access::Int {
            min: 0,
            max: u64::MAX,
            get: |c| c.slow_query_ms,
            set: |c, v| c.slow_query_ms = Some(v),
        },
        doc: "log one structured line per statement at or above this latency; 0 logs all",
    },
    Knob {
        var: "CYPHER_METRICS",
        field: "metrics_enabled",
        access: choice!(metrics_enabled, &["off", "on"], [false, true]),
        doc: "record metrics at all; off, every instrument stays at zero",
    },
];

impl Default for EngineConfig {
    /// Every field at its built-in value: the configuration a caller
    /// changes field by field, and the source of the README table's
    /// defaults.
    fn default() -> Self {
        EngineConfig {
            match_config: MatchConfig::default(),
            planner_mode: PlannerMode::default(),
            use_label_index: true,
            use_property_index: true,
            wco_join: WcoJoinMode::default(),
            morsel_size: DEFAULT_MORSEL_SIZE,
            num_threads: 1,
            persistence: None,
            wal_compact_bytes: DEFAULT_WAL_COMPACT_BYTES,
            partial_agg: PartialAggMode::default(),
            plan_cache_size: DEFAULT_PLAN_CACHE_SIZE,
            group_commit: true,
            fsync_mode: FsyncMode::default(),
            slow_query_ms: None,
            metrics_enabled: true,
            exec_metrics: None,
        }
    }
}
