//! Integration tests of the unified `SearchSpec` front door on the real
//! domains: specs round-trip through JSON (the `tables --spec`
//! reproducibility contract), and the erased `AnySearcher` form matches
//! the typed runs.

use pnmcs::games::SameGame;
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{
    decode_report, AnnealingConfig, AnySearcher, DynGame, Game, SearchReport, SearchSpec, UctConfig,
};

#[test]
fn simulated_annealing_spec_round_trips_and_reruns_identically() {
    // The last baseline joins the `tables --spec '<json>'` contract:
    // serialise, re-parse, rerun, and the reports agree bit-for-bit.
    let sg = SameGame::random(7, 7, 3, 6);
    let spec = SearchSpec::simulated_annealing_with(AnnealingConfig {
        iterations: 800,
        t_initial: 6.0,
        t_final: 0.02,
    })
    .seed(2009)
    .build();
    let json = serde_json::to_string(&spec).unwrap();
    let pasted: SearchSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, pasted);
    let first = spec.run(&sg);
    let second = pasted.run(&sg);
    assert_eq!(first.score, second.score);
    assert_eq!(first.sequence, second.sequence);
    assert_eq!(first.stats, second.stats);

    // The sequence replays (annealing reports real lines, not vectors).
    let mut replay = sg;
    for mv in &first.sequence {
        replay.play(mv);
    }
    assert_eq!(replay.score(), first.score);
}

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
        SearchSpec::simulated_annealing_with(AnnealingConfig {
            iterations: 400,
            ..Default::default()
        })
        .seed(5)
        .build(),
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
        assert_eq!(spec.algorithm.tag(), expected.algorithm.tag(), "{json}");
    }
    let batched = r#"{"algorithm":{"kind":"tree_parallel","threads":2,"leaf_batch":4},"seed":3}"#;
    let err = serde_json::from_str::<SearchSpec>(batched)
        .expect_err("a batched row must not parse")
        .to_string();
    assert!(err.contains("`leaf_batch`"), "{err}");
}

#[test]
fn tree_parallel_tags_keep_their_values_from_before_the_leaf_batch_deletion() {
    use pnmcs::search::{LockStrategy, StatsMode};
    // `leaf_batch: 0` added nothing to `tag()`, so dropping the field
    // must leave every remaining spec's identity (engine duplicate
    // detection, recorded metrics rows) exactly where it was.
    let tag = |spec: SearchSpec| spec.algorithm.tag();
    assert_eq!(
        tag(SearchSpec::tree_parallel(1).build()),
        0xc83e_d18c_98a3_8851
    );
    assert_eq!(
        tag(SearchSpec::tree_parallel(4).build()),
        0xf098_fba1_ab70_fd98
    );
    assert_eq!(
        tag(SearchSpec::tree_parallel_with(UctConfig::default(), 4)
            .lock_strategy(LockStrategy::Global)
            .stats_mode(StatsMode::VirtualLoss)
            .build()),
        0x96f0_b022_f255_8652
    );
}

#[test]
fn tree_parallel_knobs_are_part_of_tag_identity() {
    use pnmcs::search::{AlgorithmSpec, LockStrategy, StatsMode};
    // The knobs change which search the racing workers perform, so two
    // specs differing only in a knob must not look alike to the
    // engine's duplicate detection.
    let base = AlgorithmSpec::tree_parallel(4);
    let with = |lock, stats| {
        let mut a = AlgorithmSpec::tree_parallel(4);
        if let AlgorithmSpec::TreeParallel {
            lock: l, stats: s, ..
        } = &mut a
        {
            *l = lock;
            *s = stats;
        }
        a
    };
    assert_ne!(
        base.tag(),
        with(LockStrategy::Global, StatsMode::WuUct).tag()
    );
    assert_ne!(
        base.tag(),
        with(LockStrategy::Sharded, StatsMode::VirtualLoss).tag()
    );
    assert_eq!(
        base.tag(),
        with(LockStrategy::Sharded, StatsMode::WuUct).tag()
    );
}
