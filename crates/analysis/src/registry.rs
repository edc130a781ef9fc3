//! The single declared registry of `AGGPROV_*` environment variables.
//!
//! The `env` rule cross-checks every `AGGPROV_*` string literal in the
//! workspace against this table, and every entry here against the
//! README. Adding a new knob means adding it in three places — the code
//! that reads it, this registry, and the README — and the lint fails
//! until all three agree. This extends the loud-env-validation work from
//! the parallel pipeline (PR 3): unknown knobs are rejected at runtime
//! there, and unregistered knobs are rejected at lint time here.

/// Every environment variable the workspace reads, with a one-line
/// purpose. Keep sorted.
pub const ENV_REGISTRY: &[(&str, &str)] = &[
    (
        "AGGPROV_BENCH_COMMIT",
        "`1` writes bench output over the checked-in `BENCH_pr<N>.json` files",
    ),
    (
        "AGGPROV_BENCH_SAMPLES",
        "sample-count override for the benchmark harness",
    ),
    (
        "AGGPROV_THREADS",
        "worker-thread count for the parallel ground-partition pipeline",
    ),
];

/// Looks up a variable's description.
pub fn lookup(name: &str) -> Option<&'static str> {
    ENV_REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| *d)
}

/// One load-bearing enum and its designated dispatch sites: functions
/// that must carry a `match` arm for **every** variant (no wildcard
/// credit). Adding a variant to a registered enum fails the `dispatch`
/// rule until each site makes an explicit decision — exactly the places
/// where a silently-unhandled plan node, physical node, column variant
/// or error would otherwise slip through.
#[derive(Clone, Copy, Debug)]
pub struct EnumSite {
    /// The enum's name as written in source.
    pub enum_name: &'static str,
    /// Workspace-relative path of the defining file (variant names are
    /// discovered from the definition, so they can't drift).
    pub def_path: &'static str,
    /// `(path, fn_name)` pairs of the designated dispatch functions.
    pub sites: &'static [(&'static str, &'static str)],
}

/// The registered enums. Each entry names the functions whose `match`
/// over the enum is the project's "every variant decided here" point.
pub const ENUM_REGISTRY: &[EnumSite] = &[
    EnumSite {
        enum_name: "Plan",
        def_path: "crates/engine/src/plan.rs",
        sites: &[
            // Static groundness: a new plan node must declare which
            // output columns can go symbolic, or every rewrite is vetoed.
            ("crates/engine/src/opt.rs", "symbolic_cols"),
            // Physical lowering: a new plan node needs a physical form.
            ("crates/engine/src/phys.rs", "lower_with"),
            // View classification: a new plan node must make a
            // delta-maintenance decision (linear or recompute).
            ("crates/engine/src/view.rs", "count_scans"),
            ("crates/engine/src/view.rs", "contains_agg_or_setop"),
        ],
    },
    EnumSite {
        enum_name: "PhysNode",
        def_path: "crates/engine/src/phys.rs",
        sites: &[("crates/engine/src/exec.rs", "run")],
    },
    EnumSite {
        enum_name: "TypedColumn",
        def_path: "crates/krel/src/typed.rs",
        sites: &[
            // A new column representation needs a typed-kernel decision
            // for predicate compilation (or an explicit boxed fallback).
            ("crates/core/src/ops/typed.rs", "compile_lit_test"),
        ],
    },
    EnumSite {
        enum_name: "Const",
        def_path: "crates/algebra/src/domain.rs",
        sites: &[
            // Every domain constant needs a type name for error
            // rendering — the cheapest total dispatch over `Const`.
            ("crates/algebra/src/domain.rs", "type_name"),
        ],
    },
    EnumSite {
        enum_name: "RelError",
        def_path: "crates/krel/src/error.rs",
        sites: &[("crates/krel/src/error.rs", "fmt")],
    },
    EnumSite {
        enum_name: "MaintenanceStrategy",
        def_path: "crates/engine/src/view.rs",
        sites: &[
            // The wire rendering in the serving layer: a new maintenance
            // strategy must pick its protocol name.
            ("crates/server/src/session.rs", "strategy_name"),
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in ENV_REGISTRY.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn lookup_finds_threads() {
        assert!(lookup("AGGPROV_THREADS").is_some());
        assert!(lookup("AGGPROV_NO_SUCH").is_none());
    }

    #[test]
    fn enum_registry_entries_are_well_formed() {
        for e in ENUM_REGISTRY {
            assert!(!e.sites.is_empty(), "{} has no dispatch sites", e.enum_name);
            assert!(
                e.def_path.starts_with("crates/") && e.def_path.ends_with(".rs"),
                "{} def path {:?}",
                e.enum_name,
                e.def_path
            );
        }
        let names: Vec<&str> = ENUM_REGISTRY.iter().map(|e| e.enum_name).collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate enum registration");
    }

    /// The README's environment-variable table must match this registry
    /// *exactly* — same variables, same one-line purposes. The `env`
    /// lint rule already checks mention; this pins the table itself so
    /// the two can't drift apart in wording either.
    #[test]
    fn readme_env_table_matches_registry() {
        let readme = include_str!("../../../README.md");
        for (name, desc) in ENV_REGISTRY {
            let row = format!("| `{name}` | {desc} |");
            assert!(
                readme.contains(&row),
                "README env table drifted from the registry: expected the row {row:?}"
            );
        }
        for line in readme.lines().filter(|l| l.starts_with("| `AGGPROV_")) {
            let name = line
                .trim_start_matches("| `")
                .split('`')
                .next()
                .unwrap_or_default();
            assert!(
                lookup(name).is_some(),
                "README env table documents `{name}`, which is not in ENV_REGISTRY"
            );
        }
    }
}
