//! Golden vectors: what every backend returned at the commit *before*
//! the clone and undo bodies of `nmcs-core` were folded into one body
//! behind the position walker.
//!
//! Until then each algorithm had two implementations and the tests
//! compared one against the other; with one body left, nothing inside
//! the tree can vouch for it, so the anchor is the parent commit's
//! output. Each row names a spec (its JSON is in `SPECS`; the stock game
//! is built from the spec's seed) and the five numbers the parent
//! produced — the same on the undo game and on its [`SnapshotOnly`]
//! twin, which is checked here too. All eleven backends appear, UCT and
//! the shared tree in each of their width-1 shapes.
//!
//! To re-capture after an intended behaviour change, run this test: on a
//! mismatch it prints the whole table as it is now, ready to paste.

use pnmcs::games::SameGame;
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{CodedGame, Fnv1a, SearchReport, SearchSpec, SnapshotOnly};

/// `(score, sequence length, FNV-1a of the sequence, playouts, expansions)`.
type Golden = (i64, usize, u64, u64, u64);

/// The specs, by the name the rows below use.
const SPECS: &[(&str, &str)] = &[
    (
        "NESTED_2",
        r#"{"algorithm":{"kind":"nested","level":2},"seed":11}"#,
    ),
    (
        "NESTED_1_GREEDY",
        r#"{"algorithm":{"kind":"nested","level":1,"config":{"memory":"Greedy","playout_cap":null}},"seed":12}"#,
    ),
    (
        "NESTED_2_CAPPED",
        r#"{"algorithm":{"kind":"nested","level":2,"config":{"memory":"Memorise","playout_cap":4}},"seed":13}"#,
    ),
    (
        "NESTED_2_INTERRUPTED",
        r#"{"algorithm":{"kind":"nested","level":2},"budget":{"max_playouts":60},"seed":14}"#,
    ),
    (
        "NRPA_2",
        r#"{"algorithm":{"kind":"nrpa","level":2,"config":{"iterations":8,"alpha":1.0}},"seed":15}"#,
    ),
    (
        "UCT",
        r#"{"algorithm":{"kind":"uct","config":{"iterations":300,"exploration":0.4,"max_bias":0.5}},"seed":16}"#,
    ),
    (
        "UCT_REUSE",
        r#"{"algorithm":{"kind":"uct","config":{"iterations":300,"exploration":0.4,"max_bias":0.5},"tree_reuse":true},"seed":17}"#,
    ),
    (
        "FLAT_MC",
        r#"{"algorithm":{"kind":"flat_mc","playouts":32},"seed":18}"#,
    ),
    (
        "ITERATED",
        r#"{"algorithm":{"kind":"iterated_sampling","samples":2},"seed":19}"#,
    ),
    (
        "BEAM",
        r#"{"algorithm":{"kind":"beam","width":3,"samples":2},"seed":20}"#,
    ),
    ("SAMPLE", r#"{"algorithm":{"kind":"sample"},"seed":21}"#),
    (
        "LEAF",
        r#"{"algorithm":{"kind":"leaf_parallel","level":2,"batch":2,"threads":2,"playout_cap":null,"first_move":false},"seed":22}"#,
    ),
    (
        "ROOT",
        r#"{"algorithm":{"kind":"root_parallel","level":2,"threads":2,"playout_cap":null,"first_move":false},"seed":23}"#,
    ),
    (
        "TREE_1",
        r#"{"algorithm":{"kind":"tree_parallel","config":{"iterations":300,"exploration":0.4,"max_bias":0.5},"threads":1},"seed":24}"#,
    ),
    (
        "TREE_1_BATCHED",
        r#"{"algorithm":{"kind":"tree_parallel","config":{"iterations":300,"exploration":0.4,"max_bias":0.5},"threads":1,"leaf_batch":4},"seed":25}"#,
    ),
    (
        "ANNEALING",
        r#"{"algorithm":{"kind":"simulated_annealing","config":{"iterations":200,"t_initial":4.0,"t_final":0.05}},"seed":26}"#,
    ),
];

/// `(spec name, stock game, what commit 70ef745 returned)`, debug and
/// release alike.
const GOLDEN: &[(&str, &str, Golden)] = &[
    (
        "NESTED_2",
        "samegame-small",
        (1110, 9, 12276730636424257326, 356, 382),
    ),
    (
        "NESTED_1_GREEDY",
        "samegame-small",
        (1118, 6, 7483844548777703249, 20, 20),
    ),
    (
        "NESTED_2_CAPPED",
        "samegame-small",
        (1156, 7, 9801951122013371721, 328, 354),
    ),
    (
        "NESTED_2_INTERRUPTED",
        "samegame-small",
        (1074, 10, 15752795208005060062, 60, 64),
    ),
    (
        "NRPA_2",
        "samegame-small",
        (1054, 9, 15683941822276328721, 64, 0),
    ),
    (
        "UCT",
        "samegame-small",
        (1080, 8, 4767398949755182596, 300, 122),
    ),
    (
        "UCT_REUSE",
        "samegame-small",
        (1118, 7, 17998830143073209900, 300, 214),
    ),
    (
        "FLAT_MC",
        "samegame-small",
        (206, 5, 4059608484415841740, 32, 0),
    ),
    (
        "ITERATED",
        "samegame-small",
        (149, 6, 16628918643559266478, 40, 40),
    ),
    (
        "BEAM",
        "samegame-small",
        (1282, 4, 13793031836415709444, 54, 27),
    ),
    (
        "SAMPLE",
        "samegame-small",
        (90, 9, 16637232903061044941, 1, 0),
    ),
    (
        "LEAF",
        "samegame-small",
        (1100, 7, 1764614119054885782, 862, 862),
    ),
    (
        "ROOT",
        "samegame-small",
        (1172, 7, 13288589072194685582, 721, 0),
    ),
    (
        "TREE_1",
        "samegame-small",
        (1114, 8, 11232429302378845598, 300, 300),
    ),
    (
        "TREE_1_BATCHED",
        "samegame-small",
        (1106, 7, 18398045073032458615, 300, 64),
    ),
    (
        "ANNEALING",
        "samegame-small",
        (1148, 7, 13023125504463441159, 201, 0),
    ),
    (
        "NESTED_2",
        "morpion-c3",
        (20, 20, 5234184807030370768, 14872, 15067),
    ),
    (
        "NESTED_1_GREEDY",
        "morpion-c3",
        (18, 18, 4335103857427599305, 178, 178),
    ),
    (
        "NESTED_2_CAPPED",
        "morpion-c3",
        (19, 19, 303418054923973051, 9042, 9172),
    ),
    (
        "NESTED_2_INTERRUPTED",
        "morpion-c3",
        (19, 19, 11631022372967082992, 60, 61),
    ),
    (
        "NRPA_2",
        "morpion-c3",
        (20, 20, 10418910628304192135, 64, 0),
    ),
    (
        "UCT",
        "morpion-c3",
        (19, 19, 12012106342406221755, 300, 300),
    ),
    (
        "UCT_REUSE",
        "morpion-c3",
        (19, 19, 2999103053236434667, 300, 300),
    ),
    (
        "FLAT_MC",
        "morpion-c3",
        (19, 19, 7180629947719075366, 32, 0),
    ),
    (
        "ITERATED",
        "morpion-c3",
        (19, 19, 11287353731609931035, 334, 334),
    ),
    (
        "BEAM",
        "morpion-c3",
        (20, 20, 1754060825167036300, 928, 464),
    ),
    ("SAMPLE", "morpion-c3", (15, 15, 245363851894596210, 1, 0)),
    (
        "LEAF",
        "morpion-c3",
        (20, 20, 10835502613018002232, 29405, 29405),
    ),
    (
        "ROOT",
        "morpion-c3",
        (19, 19, 7190029663495089920, 12801, 0),
    ),
    (
        "TREE_1",
        "morpion-c3",
        (19, 19, 7036528427292344293, 300, 300),
    ),
    (
        "TREE_1_BATCHED",
        "morpion-c3",
        (20, 20, 14290380724659806999, 300, 300),
    ),
    (
        "ANNEALING",
        "morpion-c3",
        (19, 19, 15465733730230896991, 201, 0),
    ),
];

fn digest<M: std::fmt::Debug>(report: &SearchReport<M>) -> Golden {
    let mut h = Fnv1a::new();
    for mv in &report.sequence {
        h.write_bytes(format!("{mv:?}").as_bytes());
        h.write_u8(b';');
    }
    (
        report.score,
        report.sequence.len(),
        h.finish(),
        report.stats.playouts,
        report.stats.expansions,
    )
}

/// Runs `spec` on `game` and on its clone-only twin; the two must agree
/// on the whole report, not just on the digest.
fn run_both<G>(spec: &SearchSpec, game: &G) -> Golden
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let undo = spec.run(game);
    let clone = spec.run(&SnapshotOnly(game.clone()));
    assert_eq!(undo.score, clone.score, "{spec:?}");
    assert_eq!(undo.sequence, clone.sequence, "{spec:?}");
    assert_eq!(undo.stats, clone.stats, "{spec:?}");
    assert_eq!(undo.interrupted, clone.interrupted, "{spec:?}");
    digest(&undo)
}

fn run_row(name: &str, game: &str) -> Golden {
    let json = SPECS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no spec named {name}"))
        .1;
    let spec: SearchSpec = serde_json::from_str(json).expect("spec parses");
    match game {
        "samegame-small" => run_both(&spec, &SameGame::random(6, 6, 3, spec.seed)),
        "morpion-c3" => run_both(&spec, &cross_board(Variant::Disjoint, 3)),
        other => panic!("unknown stock game {other}"),
    }
}

#[test]
fn every_backend_reproduces_the_parent_commit() {
    let mut now = String::new();
    let mut same = true;
    for &(name, game, want) in GOLDEN {
        let got = run_row(name, game);
        same &= got == want;
        now.push_str(&format!("    ({name:?}, {game:?}, {got:?}),\n"));
    }
    assert!(same, "golden vectors changed; the table is now:\n{now}");
}
