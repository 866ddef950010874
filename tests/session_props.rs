//! Property tests for the PR-10 session plumbing's two compatibility
//! contracts:
//!
//! 1. **Serde back-compat** — `tree_reuse: false` is the wire default:
//!    legacy JSON rows (persisted before the knob existed, so carrying
//!    no `tree_reuse` field) deserialise to exactly the spec the
//!    builder produces today, and running either spec is bit-identical
//!    (score, sequence, counters) on every backend. Stripping the field
//!    from a *warm* spec must conversely turn the knob off — legacy
//!    rows can never accidentally resurrect as warm sessions.
//!
//! 2. **`state_hash` round-trip** — on every real domain, the hash a
//!    session keys its transposition table with survives the copy
//!    restore the searches use: a `clone_from` copy hashes like its
//!    source and swapping it back restores the pre-move hash exactly.
//!    Without this, a warm tree re-rooted after a search would look up
//!    poisoned entries.
//!
//! 3. **One warm tree, two spec kinds** — a warm `uct` session and a
//!    warm `tree_parallel(1)` session both step the arena, with one
//!    lane; at every step the two agree on score, sequence, counters and
//!    transposition-table hits and evictions, on every table size down
//!    to one that evicts constantly, and on a game whose `state_hash`
//!    collides on purpose.

use pnmcs::games::{NeedleLadder, SameGame, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{
    mix64, CodedGame, DynGame, Game, Rng, Score, SearchReport, SearchSession, SearchSpec, UctConfig,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Removes every `tree_reuse` field from a JSON tree, reproducing the
/// exact shape pre-knob persisted rows have on disk.
fn strip_tree_reuse(v: &Value) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(strip_tree_reuse).collect()),
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "tree_reuse")
                .map(|(k, field)| (k.clone(), strip_tree_reuse(field)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// One spec per backend, parallel ones at width 1 so a run is
/// bit-reproducible and the legacy/current comparison cannot flake.
fn backends(seed: u64) -> Vec<SearchSpec> {
    vec![
        SearchSpec::nested(1).seed(seed).build(),
        SearchSpec::nrpa(1).seed(seed).build(),
        SearchSpec::flat_mc(16).seed(seed).build(),
        SearchSpec::uct().seed(seed).max_playouts(64).build(),
        SearchSpec::leaf(1, 2, 1).seed(seed).build(),
        SearchSpec::root_parallel(2, 1).seed(seed).build(),
        SearchSpec::tree_parallel(1)
            .seed(seed)
            .max_playouts(64)
            .build(),
    ]
}

/// The observable outcome of a run: everything a persisted report
/// records except wall-clock time.
fn fingerprint(spec: &SearchSpec, game: &SumGame) -> (i64, Vec<u8>, u64, u64, bool) {
    let r: SearchReport<u8> = spec.run(game);
    (
        r.score,
        r.sequence,
        r.stats.playouts,
        r.stats.work_units,
        r.interrupted.is_some(),
    )
}

/// Drives a random walk over `game`, restoring each move the way the
/// walker does — copy into a kept slot, play, swap the copy back — and
/// checking that the copy hashes like its source, restores the pre-move
/// hash, and that playing the move again reaches the same hash. Plain
/// asserts (not `prop_assert`) so the helper stays generic over `G`.
fn check_hash_walk<G: Game>(mut game: G, seed: u64, cap: usize) {
    let mut rng = Rng::seeded(seed);
    let mut moves = Vec::new();
    let mut slot = game.clone();
    for _ in 0..cap {
        moves.clear();
        game.legal_moves(&mut moves);
        if moves.is_empty() {
            break;
        }
        let mv = &moves[rng.below(moves.len())];
        let before = game.state_hash();
        slot.clone_from(&game);
        assert_eq!(
            slot.state_hash(),
            before,
            "a copy must hash like its source (move {})",
            game.moves_played()
        );
        game.play(mv);
        let after = game.state_hash();
        std::mem::swap(&mut game, &mut slot);
        assert_eq!(
            game.state_hash(),
            before,
            "the copy must restore the pre-move hash (move {})",
            game.moves_played()
        );
        game.play(mv);
        assert_eq!(
            game.state_hash(),
            after,
            "replaying a move must reach the same hash (move {})",
            game.moves_played()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // -- contract 1: legacy JSON ≡ tree_reuse: false ------------------

    #[test]
    fn legacy_json_without_the_knob_is_bit_identical_on_every_backend(
        seed in 0u64..500,
    ) {
        let game = SumGame::random(4, 3, seed);
        for spec in backends(seed) {
            let legacy = strip_tree_reuse(&spec.to_value());
            let revived = SearchSpec::from_value(&legacy)
                .expect("legacy rows must keep deserialising");
            // The knobless wire form IS the reuse-off spec...
            prop_assert_eq!(&revived, &spec, "legacy JSON must mean reuse-off");
            // ...and runs exactly as the pre-PR backend did.
            prop_assert_eq!(
                fingerprint(&revived, &game),
                fingerprint(&spec, &game),
                "legacy and current specs must run bit-identically: {:?}",
                spec.algorithm.label()
            );
        }
    }

    #[test]
    fn serialisation_always_records_the_knob_on_tree_backends(
        seed in 0u64..500, reuse_bit in 0u8..2,
    ) {
        let reuse = reuse_bit == 1;
        for spec in [
            SearchSpec::uct().tree_reuse(reuse).seed(seed).build(),
            SearchSpec::tree_parallel(1).tree_reuse(reuse).seed(seed).build(),
        ] {
            let json = serde_json::to_string(&spec).expect("specs serialise");
            prop_assert!(
                json.contains("\"tree_reuse\""),
                "new rows must be self-describing: {json}"
            );
            let round: SearchSpec = serde_json::from_str(&json).expect("round-trips");
            prop_assert_eq!(round, spec);
        }
    }

    #[test]
    fn stripping_a_warm_spec_turns_the_knob_off(seed in 0u64..500) {
        for warm in [
            SearchSpec::uct().tree_reuse(true).seed(seed).build(),
            SearchSpec::tree_parallel(1).tree_reuse(true).seed(seed).build(),
        ] {
            let cold = SearchSpec::from_value(&strip_tree_reuse(&warm.to_value()))
                .expect("stripped specs deserialise");
            // The knob must survive the wire: stripping it names a
            // different algorithm.
            prop_assert_ne!(&cold, &warm);
            prop_assert_ne!(&cold.algorithm, &warm.algorithm);
        }
    }

    // -- contract 2: state_hash survives the copy restore --------------

    #[test]
    fn state_hash_round_trips_on_samegame(seed in 0u64..1000) {
        check_hash_walk(SameGame::random(5, 5, 3, seed), seed, 64);
    }

    #[test]
    fn state_hash_round_trips_on_morpion(seed in 0u64..1000) {
        check_hash_walk(cross_board(Variant::Disjoint, 3), seed, 48);
    }

    #[test]
    fn state_hash_round_trips_on_tsp(seed in 0u64..1000) {
        check_hash_walk(TspGame::new(TspInstance::random(7, seed), None), seed, 16);
    }

    #[test]
    fn state_hash_round_trips_on_toy_games(seed in 0u64..1000) {
        check_hash_walk(SumGame::random(5, 4, seed), seed, 16);
        check_hash_walk(NeedleLadder::new(6), seed, 16);
    }

    #[test]
    fn state_hash_round_trips_through_erasure(seed in 0u64..1000) {
        // The erased wrapper must preserve the inner game's hash
        // discipline — sessions opened over the HTTP surface only ever
        // see a `DynGame`.
        check_hash_walk(DynGame::new(SameGame::random(5, 5, 3, seed)), seed, 48);
        check_hash_walk(DynGame::new(SumGame::random(5, 4, seed)), seed, 16);
    }
}

// -- contract 3: warm `uct` ≡ warm `tree_parallel(1)` -----------------

/// Table bounds the warm equivalence runs under: the default, and two
/// small enough that eviction runs all the time.
const TABLES: [Option<usize>; 3] = [None, Some(4 * 1024), Some(512)];

/// Steps a warm `uct` session and a warm `tree_parallel(1)` session
/// from `game` to the end, asserting that every step agrees; returns
/// the final (hits, evictions).
fn warm_sessions_agree<G>(
    label: &str,
    game: G,
    iterations: usize,
    table: Option<usize>,
) -> (u64, u64)
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let config = UctConfig {
        iterations,
        ..UctConfig::default()
    };
    let seed = 31;
    let uct = SearchSpec::uct_with(config.clone())
        .tree_reuse(true)
        .seed(seed)
        .build();
    let shared = SearchSpec::tree_parallel_with(config, 1)
        .tree_reuse(true)
        .seed(seed)
        .build();
    let mut arena = SearchSession::new(game.clone(), uct, table);
    let mut tree = SearchSession::new(game, shared, table);
    let mut step = 0;
    while !arena.is_done() {
        let (a, t) = (arena.step(None), tree.step(None));
        let at = format!("{label}, table {table:?}, step {step}");
        assert_eq!(a.score, t.score, "{at}: score");
        assert_eq!(a.sequence, t.sequence, "{at}: sequence");
        assert_eq!(a.stats, t.stats, "{at}: counters");
        assert_eq!(arena.table_counters(), tree.table_counters(), "{at}: table");
        step += 1;
    }
    assert!(tree.is_done(), "{label}: both sessions end together");
    assert_eq!(arena.committed(), tree.committed(), "{label}");
    arena.table_counters()
}

#[test]
fn warm_uct_matches_warm_tree_parallel_on_every_domain_and_table() {
    let mut evictions = 0;
    for table in TABLES {
        evictions += warm_sessions_agree("samegame", SameGame::random(10, 10, 4, 3), 200, table).1;
        warm_sessions_agree("sum", SumGame::random(12, 6, 4), 300, table);
        warm_sessions_agree(
            "tsp",
            TspGame::new(TspInstance::random(9, 5), None),
            300,
            table,
        );
        // As served: sessions opened over HTTP step a `DynGame`.
        let served = DynGame::new(SameGame::random(8, 8, 3, 6));
        warm_sessions_agree("served samegame", served, 200, table);
    }
    assert!(evictions > 0, "the small tables must evict");
}

/// `SumGame` whose `state_hash` keeps three bits of the score, so most
/// positions share a key with a sibling, an ancestor or a descendant,
/// and a descent often meets a statistics cell it already holds.
#[derive(Clone, Debug)]
struct Colliding(SumGame);

impl Game for Colliding {
    type Move = u8;
    fn legal_moves(&self, out: &mut Vec<u8>) {
        self.0.legal_moves(out);
    }
    fn play(&mut self, mv: &u8) {
        self.0.play(mv);
    }
    fn score(&self) -> Score {
        self.0.score()
    }
    fn moves_played(&self) -> usize {
        self.0.moves_played()
    }
    fn state_hash(&self) -> u64 {
        mix64(self.0.score() as u64 % 8 + 1)
    }
}

impl CodedGame for Colliding {
    fn move_code(&self, mv: &u8) -> u64 {
        self.0.move_code(mv)
    }
}

#[test]
fn warm_uct_matches_warm_tree_parallel_when_state_hashes_collide() {
    for table in TABLES {
        let (hits, _) = warm_sessions_agree(
            "colliding",
            Colliding(SumGame::random(10, 5, 8)),
            300,
            table,
        );
        assert!(
            hits > 100,
            "table {table:?}: collisions must share cells ({hits} hits)"
        );
    }
}
