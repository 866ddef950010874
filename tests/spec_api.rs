//! Integration tests of the unified `SearchSpec` front door on the real
//! domains: specs round-trip through JSON (the `tables --spec`
//! reproducibility contract), and the erased `AnySearcher` form matches
//! the typed runs.

#![allow(
    clippy::disallowed_methods,
    reason = "the parse-edge sweep bounds each run's wall time from a thread of its own"
)]

use pnmcs::games::SameGame;
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{
    decode_report, AnySearcher, DynGame, Game, SearchReport, SearchSpec, UctConfig,
};
use proptest::prelude::*;

/// How many algorithm kinds a spec can name.
const KINDS: usize = 7;

#[test]
fn a_pasted_spec_json_reproduces_a_run_exactly() {
    // The `tables --spec '<json>'` contract: serialise, re-parse, rerun,
    // and the two reports agree bit-for-bit (scores, sequences, stats).
    let sg = SameGame::random(8, 8, 4, 11);
    let spec = SearchSpec::leaf(1, 4, 3).seed(2009).build();
    let first = spec.run(&sg);
    let json = serde_json::to_string(&spec).unwrap();
    let pasted: SearchSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, pasted);
    let second = pasted.run(&sg);
    assert_eq!(first.score, second.score);
    assert_eq!(first.sequence, second.sequence);
    assert_eq!(first.stats, second.stats);
    assert_eq!(first.client_jobs, second.client_jobs);

    // Reports themselves round-trip too (persisted sweep rows).
    let report_json = serde_json::to_string(&first).unwrap();
    let back: SearchReport<pnmcs::games::Tap> = serde_json::from_str(&report_json).unwrap();
    assert_eq!(back.score, first.score);
    assert_eq!(back.sequence, first.sequence);
    assert_eq!(back.stats, first.stats);
    assert_eq!(back.seed, first.seed);
}

#[test]
fn erased_searcher_matches_typed_searcher() {
    let sg = SameGame::random(6, 6, 3, 8);
    let specs: Vec<SearchSpec> = vec![
        SearchSpec::nested(1).seed(5).build(),
        SearchSpec::nrpa(1).seed(5).build(),
        SearchSpec::uct().seed(5).build(),
        // Tree-parallel at one worker is deterministic, so erasure
        // transparency is assertable for the new backend too.
        SearchSpec::tree_parallel(1).seed(5).build(),
    ];
    for spec in &specs {
        let typed = spec.run(&sg);
        let erased: &dyn AnySearcher = spec;
        let report = erased.search_erased(&DynGame::new(sg.clone()), None);
        let decoded = decode_report(&sg, &report);
        assert_eq!(decoded.score, typed.score, "{}", erased.label());
        assert_eq!(decoded.sequence, typed.sequence, "{}", erased.label());
        assert_eq!(decoded.stats, typed.stats, "{}", erased.label());
    }
}

#[test]
fn reports_subsume_the_legacy_result_shapes() {
    // One report answers what previously took three types: score +
    // sequence + stats (SearchResult), wall/work (ThreadReport), and the
    // leaf backend's (outcome, elapsed) tuple.
    let board = cross_board(Variant::Disjoint, 2);
    let report = SearchSpec::root_parallel(2, 2).seed(9).run(&board);
    assert!(report.elapsed.as_nanos() > 0);
    assert!(report.total_work() > 0);
    assert!(report.client_jobs > 0);
    let legacy = report.result();
    assert_eq!(legacy.score, report.score);
    assert_eq!(legacy.stats.work_units, report.total_work());
    let mut replay = board;
    for mv in &report.sequence {
        replay.play(mv);
    }
    assert_eq!(replay.score(), report.score);
}

#[test]
fn tree_parallel_knobs_round_trip_and_rerun_identically() {
    use pnmcs::search::{AlgorithmSpec, LockStrategy, StatsMode};
    let sg = SameGame::random(6, 6, 3, 4);
    let cfg = UctConfig {
        iterations: 150,
        ..UctConfig::default()
    };
    // Every knob combination serde-round-trips; the deterministic ones
    // (one worker) also rerun identically from the parsed spec.
    for lock in [LockStrategy::Global, LockStrategy::Sharded] {
        for stats in [StatsMode::VirtualLoss, StatsMode::WuUct] {
            let spec = SearchSpec::tree_parallel_with(cfg.clone(), 1)
                .lock_strategy(lock)
                .stats_mode(stats)
                .seed(9)
                .build();
            let json = serde_json::to_string(&spec).unwrap();
            let back: SearchSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "round-trip of {json}");
            let AlgorithmSpec::TreeParallel {
                lock: l, stats: s, ..
            } = &back.algorithm
            else {
                panic!("wrong variant from {json}");
            };
            assert_eq!((*l, *s), (lock, stats));
            let first = spec.run(&sg);
            let again = back.run(&sg);
            assert_eq!(first.score, again.score, "{json}");
            assert_eq!(first.sequence, again.sequence, "{json}");
            assert_eq!(first.stats, again.stats, "{json}");
        }
    }
}

#[test]
fn pre_knob_tree_parallel_json_parses_to_the_defaults() {
    use pnmcs::search::{AlgorithmSpec, LockStrategy, StatsMode};
    // A PR-4 row knows nothing of lock/stats; it must still parse,
    // landing on the current defaults.
    let json = r#"{"algorithm":{"kind":"tree_parallel","threads":4},"seed":7}"#;
    let spec: SearchSpec = serde_json::from_str(json).unwrap();
    let AlgorithmSpec::TreeParallel {
        threads,
        lock,
        stats,
        ..
    } = &spec.algorithm
    else {
        panic!("wrong variant");
    };
    assert_eq!(*threads, 4);
    assert_eq!(*lock, LockStrategy::Sharded);
    assert_eq!(*stats, StatsMode::WuUct);
}

#[test]
fn legacy_leaf_batch_parses_as_the_inline_search_or_is_refused() {
    // Batched leaves are gone. A row saved with `leaf_batch` 0 or 1 ran
    // the inline search, so it still parses to exactly that spec; a
    // batched row (>= 2) named a different search and is refused with
    // a reason naming the field, never replayed as something else.
    let plain = r#"{"algorithm":{"kind":"tree_parallel","threads":2},"seed":3}"#;
    let expected: SearchSpec = serde_json::from_str(plain).unwrap();
    for batch in [0, 1] {
        let json = format!(
            r#"{{"algorithm":{{"kind":"tree_parallel","threads":2,"leaf_batch":{batch}}},"seed":3}}"#
        );
        let spec: SearchSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, expected, "{json}");
    }
    let batched = r#"{"algorithm":{"kind":"tree_parallel","threads":2,"leaf_batch":4},"seed":3}"#;
    let err = serde_json::from_str::<SearchSpec>(batched)
        .expect_err("a batched row must not parse")
        .to_string();
    assert!(err.contains("`leaf_batch`"), "{err}");

    // The beam kind and the two pre-paper baselines are gone as kinds:
    // their rows are refused by name.
    for (kind, algorithm) in [
        ("beam", r#"{"kind":"beam","width":3,"samples":2}"#),
        (
            "iterated_sampling",
            r#"{"kind":"iterated_sampling","samples":2}"#,
        ),
        (
            "simulated_annealing",
            r#"{"kind":"simulated_annealing","config":{"iterations":200,"t_initial":4.0,"t_final":0.05}}"#,
        ),
    ] {
        let json = format!(r#"{{"algorithm":{algorithm},"seed":20}}"#);
        let err = serde_json::from_str::<SearchSpec>(&json)
            .expect_err("a removed kind must not parse")
            .to_string();
        assert!(err.contains(&format!("`{kind}`")), "{err}");
    }

    // The paper's `sample` is nested level 0, under either name.
    let sample: SearchSpec =
        serde_json::from_str(r#"{"algorithm":{"kind":"sample"},"seed":21}"#).unwrap();
    assert_eq!(sample, SearchSpec::sample().seed(21).build());
    assert_eq!(sample, SearchSpec::nested(0).seed(21).build());

    // Playouts run to the end: a `playout_cap` of null was this same
    // search and parses to it; a number named a different search and is
    // refused naming the field, wherever the kind kept it.
    for (plain, field_at) in [
        (
            r#"{"kind":"nested","level":1,"config":{"memory":"Greedy"}}"#,
            r#"{"kind":"nested","level":1,"config":{"memory":"Greedy","playout_cap":CAP}}"#,
        ),
        (
            r#"{"kind":"leaf_parallel","level":2,"batch":2,"threads":2}"#,
            r#"{"kind":"leaf_parallel","level":2,"batch":2,"threads":2,"playout_cap":CAP}"#,
        ),
        (
            r#"{"kind":"root_parallel","level":2,"threads":2}"#,
            r#"{"kind":"root_parallel","level":2,"threads":2,"playout_cap":CAP}"#,
        ),
    ] {
        let spec = |algorithm: &str| format!(r#"{{"algorithm":{algorithm},"seed":3}}"#);
        let expected: SearchSpec = serde_json::from_str(&spec(plain)).unwrap();
        let null = spec(&field_at.replace("CAP", "null"));
        assert_eq!(serde_json::from_str::<SearchSpec>(&null).unwrap(), expected);
        let capped = spec(&field_at.replace("CAP", "4"));
        let err = serde_json::from_str::<SearchSpec>(&capped)
            .expect_err("a capped row must not parse")
            .to_string();
        assert!(err.contains("`playout_cap`"), "{capped}: {err}");
    }
}

#[test]
fn a_deadline_no_duration_holds_is_refused_by_name() {
    // `Duration::from_secs_f64` panics above ~1.8e22 ms; a spec from
    // outside the program must get a parse error instead. `1e999`
    // parses to infinity.
    for ms in ["1e300", "1e999"] {
        let json = format!(
            r#"{{"algorithm":{{"kind":"nested","level":1}},"budget":{{"deadline_ms":{ms}}},"seed":1}}"#
        );
        let err = serde_json::from_str::<SearchSpec>(&json)
            .expect_err("an unrepresentable deadline must not parse")
            .to_string();
        assert!(err.contains("`deadline_ms`"), "{ms}: {err}");
    }
    // The largest deadline a `Duration` holds still parses, and a search
    // under it runs to its end.
    let json =
        r#"{"algorithm":{"kind":"nested","level":1},"budget":{"deadline_ms":1e22},"seed":1}"#;
    let spec: SearchSpec = serde_json::from_str(json).expect("1e22 ms fits a Duration");
    let report = spec.run(&SameGame::random(4, 4, 3, 1));
    assert_eq!(report.interrupted, None);
}

/// One spec of each of the [`KINDS`] kinds, its counts drawn from `n`,
/// its floats from `x`, and its flags and enum knobs from `bits`.
fn arbitrary_spec(kind: usize, n: usize, x: u64, bits: u8) -> pnmcs::search::AlgorithmSpec {
    use pnmcs::search::{
        AlgorithmSpec as A, LockStrategy, MemoryPolicy, NestedConfig, NrpaConfig, StatsMode,
    };
    let f = 0.1 + x as f64 / 100.0;
    let flag = bits & 1 == 1;
    let level = n as u32 % 4;
    let threads = 1 + n % 8;
    let uct = UctConfig {
        iterations: n,
        exploration: f,
        max_bias: f / 10.0,
    };
    match kind {
        0 => A::Nested {
            level,
            config: NestedConfig {
                memory: if flag {
                    MemoryPolicy::Greedy
                } else {
                    MemoryPolicy::Memorise
                },
            },
        },
        1 => A::Nrpa {
            level,
            config: NrpaConfig {
                iterations: n,
                alpha: f,
            },
        },
        2 => A::Uct {
            config: uct,
            tree_reuse: flag,
        },
        3 => A::FlatMc { playouts: n },
        4 => A::LeafParallel {
            level: 1 + level,
            batch: n,
            threads,
            first_move: flag,
        },
        5 => A::RootParallel {
            level: 2 + level,
            threads,
            first_move: flag,
        },
        _ => A::TreeParallel {
            config: uct,
            threads,
            lock: if bits & 4 == 4 {
                LockStrategy::Global
            } else {
                LockStrategy::Sharded
            },
            stats: if bits & 8 == 8 {
                StatsMode::VirtualLoss
            } else {
                StatsMode::WuUct
            },
            tree_reuse: flag,
        },
    }
}

/// Every leaf of a serialised spec with its dotted path (`config.alpha`);
/// nested objects are walked, the `kind` tag is not.
fn leaves(value: &serde::Value, path: &str, out: &mut Vec<(String, serde::Value)>) {
    match value {
        serde::Value::Object(fields) => {
            for (name, field) in fields.iter().filter(|(name, _)| name != "kind") {
                leaves(field, &format!("{path}{name}."), out);
            }
        }
        leaf => out.push((path.trim_end_matches('.').to_string(), leaf.clone())),
    }
}

/// What a leaf can be changed to: a count or a float moves, a flag
/// flips, and an enum knob tries every other variant name of the spec
/// types.
fn perturbations(leaf: &serde::Value) -> Vec<serde::Value> {
    use serde::Value as V;
    const VARIANTS: [&str; 6] = [
        "Memorise",
        "Greedy",
        "Global",
        "Sharded",
        "VirtualLoss",
        "WuUct",
    ];
    match leaf {
        V::Bool(b) => vec![V::Bool(!b)],
        V::U64(n) => vec![V::U64(n + 1)],
        V::I64(n) => vec![V::I64(n + 1)],
        V::F64(x) => vec![V::F64(x + 0.25)],
        V::Str(s) => VARIANTS
            .iter()
            .filter(|v| **v != s.as_str())
            .map(|v| V::Str(v.to_string()))
            .collect(),
        V::Null | V::Array(_) | V::Object(_) => unreachable!("spec leaves are set scalars"),
    }
}

/// `value` with the leaf at dotted `path` replaced by `leaf`.
fn with_leaf(value: &serde::Value, path: &str, leaf: &serde::Value) -> serde::Value {
    let serde::Value::Object(fields) = value else {
        return leaf.clone();
    };
    let (head, rest) = path.split_once('.').unwrap_or((path, ""));
    serde::Value::Object(
        fields
            .iter()
            .map(|(name, field)| {
                let field = if name == head {
                    with_leaf(field, rest, leaf)
                } else {
                    field.clone()
                };
                (name.clone(), field)
            })
            .collect(),
    )
}

/// Sets every field of every algorithm kind that `select` picks to
/// `leaf`, one at a time, under a 50 ms deadline, as `POST /jobs` or
/// `tables --spec` receives it. Each spec must be refused by the parser
/// or return a replayable report within `WALL`. Returns how many were
/// `(refused, ran)`.
fn sweep_fields(select: fn(&serde::Value) -> bool, leaf: serde::Value) -> (usize, usize) {
    use serde::Serialize;
    const WALL: std::time::Duration = std::time::Duration::from_secs(5);
    let game = pnmcs::serve::wire::stock_game("samegame-small", 1).expect("stock game");
    let (mut refused, mut ran) = (0, 0);
    for kind in 0..KINDS {
        let json = arbitrary_spec(kind, 2, 0, 0).to_value();
        let mut fields = Vec::new();
        leaves(&json, "", &mut fields);
        for (path, _) in fields.iter().filter(|(_, v)| select(v)) {
            let algorithm = serde_json::to_string(&with_leaf(&json, path, &leaf)).unwrap();
            let case = format!("{algorithm} ({path})");
            let spec =
                format!(r#"{{"algorithm":{algorithm},"budget":{{"deadline_ms":50}},"seed":1}}"#);
            let Ok(spec) = serde_json::from_str::<SearchSpec>(&spec) else {
                refused += 1;
                continue;
            };
            let (tx, rx) = std::sync::mpsc::channel();
            let searched = game.clone();
            let search = std::thread::spawn(move || tx.send(spec.run(&searched)));
            let report = rx
                .recv_timeout(WALL)
                .unwrap_or_else(|_| panic!("{case}: no report within {WALL:?}"));
            search
                .join()
                .expect("the search thread returned")
                .expect("the report was received");
            let mut replay = game.clone();
            for mv in &report.sequence {
                replay.play(mv);
            }
            assert_eq!(replay.score(), report.score, "{case}");
            ran += 1;
        }
    }
    (refused, ran)
}

/// The parse edge, swept: every integer field of every algorithm kind
/// (`level`, `batch`, `threads`, `playouts`, `iterations`) set to 2^40.
/// A spec that sizes work from the integer before its budget is read
/// either aborts this process or misses the bound.
#[test]
fn every_integer_field_at_2_pow_40_is_refused_or_stops_on_the_deadline() {
    use serde::Value;
    let swept = sweep_fields(|v| matches!(v, Value::U64(_)), Value::U64(1 << 40));
    // Levels (`u32`), `threads` and `batch` are refused; counts of work
    // that a budget interrupts run.
    assert_eq!(swept, (8, 4), "(refused, ran)");
}

/// Every float field of every algorithm kind (`alpha`, `exploration`,
/// `max_bias`) set to 1e300: all five parse, and none panics or hangs its
/// search.
#[test]
fn every_float_field_at_1e300_is_refused_or_stops_on_the_deadline() {
    use serde::Value;
    let swept = sweep_fields(|v| matches!(v, Value::F64(_)), Value::F64(1e300));
    assert_eq!(swept, (0, 5), "(refused, ran)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every serialised field is part of a spec: take any spec's JSON
    /// object, change any one field — nested `config` fields included —
    /// and it must parse to a different spec.
    #[test]
    fn changing_any_serialised_field_changes_the_spec(
        kind in 0usize..KINDS,
        n in 1usize..500,
        x in 0u64..1000,
        bits in 0u8..16,
    ) {
        use pnmcs::search::AlgorithmSpec;
        use serde::{Deserialize, Serialize};
        let spec = arbitrary_spec(kind, n, x, bits);
        let json = spec.to_value();
        let mut fields = Vec::new();
        leaves(&json, "", &mut fields);
        for (path, value) in fields {
            let options = perturbations(&value);
            let mut parsed = 0;
            for leaf in &options {
                let Ok(changed) = AlgorithmSpec::from_value(&with_leaf(&json, &path, leaf)) else {
                    continue;
                };
                parsed += 1;
                prop_assert!(changed != spec, "{path} = {leaf:?} parsed back to {spec:?}");
            }
            prop_assert!(parsed > 0, "no change of {path} parses: {options:?}");
        }
    }
}
