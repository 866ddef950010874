//! Golden vectors: what every backend returned at the commit *before*
//! the clone and undo bodies of `nmcs-core` were folded into one body
//! behind the position walker.
//!
//! Until then each algorithm had two implementations and the tests
//! compared one against the other; with one body left, nothing inside
//! the tree can vouch for it, so the anchor is the parent commit's
//! output. Each row names a spec (its JSON is in `SPECS`; the stock game
//! is built from the spec's seed) and the six numbers the parent
//! produced. All seven algorithm kinds appear, `sample` (NMCS at level
//! 0) under its own name, and UCT and tree-parallel UCT in each of their
//! width-1 shapes.
//!
//! The rows on `samegame-7x7` and `morpion-c2` are what the frozen
//! spawn-per-step leaf and root executors returned at commit f855283,
//! the last one that carried them; the pool executors used to be compared
//! with those per seed. An unbudgeted leaf- or root-parallel row must
//! hold at every worker count. The two `*_CUT` rows pin where a tripped
//! playout cap leaves the greedy game — reproducible only at one worker,
//! so that is where they run.
//!
//! The rows on `tsp`, `sudoku`, `sum` and `needle` were captured at
//! commit 0ed56e8, the last one where those games undid their own moves
//! and every search ran on them both by undo and by copy, with equal
//! reports; they anchor the copy restore that replaced the undo
//! journals.
//!
//! The `TREE_2` and `TREE_4` rows on `samegame-small` and `tsp` pin
//! tree-parallel UCT above one lane. They were captured when its waves
//! replaced the shared tree several workers raced on; a wave's result
//! does not depend on which thread rolled out which lane, so they hold
//! at every pool size and every `NMCS_TEST_WORKERS`.
//!
//! To re-capture after an intended behaviour change, run this test: on a
//! mismatch it prints the whole table as it is now, ready to paste.

use pnmcs::games::{NeedleLadder, SameGame, Sudoku, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{AlgorithmSpec, CodedGame, Fnv1a, SearchReport, SearchSpec};

mod common;
use common::test_workers;

/// `(score, sequence length, FNV-1a of the sequence, playouts,
/// expansions, client jobs)`.
type Golden = (i64, usize, u64, u64, u64, u64);

/// The specs, by the name the rows below use.
const SPECS: &[(&str, &str)] = &[
    (
        "NESTED_1",
        r#"{"algorithm":{"kind":"nested","level":1},"seed":29}"#,
    ),
    (
        "NESTED_2",
        r#"{"algorithm":{"kind":"nested","level":2},"seed":11}"#,
    ),
    (
        "NESTED_1_GREEDY",
        r#"{"algorithm":{"kind":"nested","level":1,"config":{"memory":"Greedy","playout_cap":null}},"seed":12}"#,
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
        "TREE_2",
        r#"{"algorithm":{"kind":"tree_parallel","config":{"iterations":300,"exploration":0.4,"max_bias":0.5},"threads":2},"seed":30}"#,
    ),
    (
        "TREE_4",
        r#"{"algorithm":{"kind":"tree_parallel","config":{"iterations":300,"exploration":0.4,"max_bias":0.5},"threads":4},"seed":31}"#,
    ),
    (
        "LEAF_1X4_S1",
        r#"{"algorithm":{"kind":"leaf_parallel","level":1,"batch":4,"threads":1},"seed":1}"#,
    ),
    (
        "LEAF_1X4_S42",
        r#"{"algorithm":{"kind":"leaf_parallel","level":1,"batch":4,"threads":1},"seed":42}"#,
    ),
    (
        "LEAF_1X4_S2009",
        r#"{"algorithm":{"kind":"leaf_parallel","level":1,"batch":4,"threads":1},"seed":2009}"#,
    ),
    (
        "LEAF_2X2_FIRST_S1",
        r#"{"algorithm":{"kind":"leaf_parallel","level":2,"batch":2,"threads":1,"first_move":true},"seed":1}"#,
    ),
    (
        "LEAF_2X2_FIRST_S42",
        r#"{"algorithm":{"kind":"leaf_parallel","level":2,"batch":2,"threads":1,"first_move":true},"seed":42}"#,
    ),
    (
        "LEAF_2X2_FIRST_S2009",
        r#"{"algorithm":{"kind":"leaf_parallel","level":2,"batch":2,"threads":1,"first_move":true},"seed":2009}"#,
    ),
    (
        "ROOT_2_S7",
        r#"{"algorithm":{"kind":"root_parallel","level":2,"threads":1},"seed":7}"#,
    ),
    (
        "ROOT_2_S4242",
        r#"{"algorithm":{"kind":"root_parallel","level":2,"threads":1},"seed":4242}"#,
    ),
    (
        "LEAF_CUT",
        r#"{"algorithm":{"kind":"leaf_parallel","level":2,"batch":2,"threads":1},"budget":{"max_playouts":8000},"seed":27}"#,
    ),
    (
        "ROOT_CUT",
        r#"{"algorithm":{"kind":"root_parallel","level":2,"threads":1},"budget":{"max_playouts":6000},"seed":28}"#,
    ),
];

/// `(spec name, stock game, what the parent commit returned)`, debug and
/// release alike. The first two blocks are from 70ef745; their job
/// counts and the last block are from f855283.
const GOLDEN: &[(&str, &str, Golden)] = &[
    (
        "NESTED_2",
        "samegame-small",
        (1110, 9, 12276730636424257326, 356, 382, 0),
    ),
    (
        "NESTED_1_GREEDY",
        "samegame-small",
        (1118, 6, 7483844548777703249, 20, 20, 0),
    ),
    (
        "NESTED_2_INTERRUPTED",
        "samegame-small",
        (1074, 10, 15752795208005060062, 60, 64, 0),
    ),
    (
        "NRPA_2",
        "samegame-small",
        (1054, 9, 15683941822276328721, 64, 0, 0),
    ),
    (
        "UCT",
        "samegame-small",
        (1080, 8, 4767398949755182596, 300, 122, 0),
    ),
    (
        "UCT_REUSE",
        "samegame-small",
        (1118, 7, 17998830143073209900, 300, 214, 0),
    ),
    (
        "FLAT_MC",
        "samegame-small",
        (206, 5, 4059608484415841740, 32, 0, 0),
    ),
    (
        "SAMPLE",
        "samegame-small",
        (90, 9, 16637232903061044941, 1, 0, 0),
    ),
    (
        "LEAF",
        "samegame-small",
        (1100, 7, 1764614119054885782, 862, 862, 60),
    ),
    (
        "ROOT",
        "samegame-small",
        (1172, 7, 13288589072194685582, 721, 0, 721),
    ),
    (
        "TREE_1",
        "samegame-small",
        (1114, 8, 11232429302378845598, 300, 300, 0),
    ),
    (
        "TREE_2",
        "samegame-small",
        (1144, 8, 7134724620076197728, 300, 90, 0),
    ),
    (
        "TREE_4",
        "samegame-small",
        (1072, 11, 3973573167563523465, 300, 300, 0),
    ),
    (
        "NESTED_2",
        "morpion-c3",
        (20, 20, 5234184807030370768, 14872, 15067, 0),
    ),
    (
        "NESTED_1_GREEDY",
        "morpion-c3",
        (18, 18, 4335103857427599305, 178, 178, 0),
    ),
    (
        "NESTED_2_INTERRUPTED",
        "morpion-c3",
        (19, 19, 11631022372967082992, 60, 61, 0),
    ),
    (
        "NRPA_2",
        "morpion-c3",
        (20, 20, 10418910628304192135, 64, 0, 0),
    ),
    (
        "UCT",
        "morpion-c3",
        (19, 19, 12012106342406221755, 300, 300, 0),
    ),
    (
        "UCT_REUSE",
        "morpion-c3",
        (19, 19, 2999103053236434667, 300, 300, 0),
    ),
    (
        "FLAT_MC",
        "morpion-c3",
        (19, 19, 7180629947719075366, 32, 0, 0),
    ),
    (
        "SAMPLE",
        "morpion-c3",
        (15, 15, 245363851894596210, 1, 0, 0),
    ),
    (
        "LEAF",
        "morpion-c3",
        (20, 20, 10835502613018002232, 29405, 29405, 374),
    ),
    (
        "ROOT",
        "morpion-c3",
        (19, 19, 7190029663495089920, 12801, 0, 12801),
    ),
    (
        "TREE_1",
        "morpion-c3",
        (19, 19, 7036528427292344293, 300, 300, 0),
    ),
    (
        "LEAF_1X4_S1",
        "samegame-7x7",
        (1323, 11, 10924223962733456046, 204, 0, 204),
    ),
    (
        "LEAF_1X4_S42",
        "samegame-7x7",
        (1323, 12, 17477678361844262954, 180, 0, 180),
    ),
    (
        "LEAF_1X4_S2009",
        "samegame-7x7",
        (1327, 11, 8086448445335239060, 204, 0, 204),
    ),
    (
        "LEAF_2X2_FIRST_S1",
        "morpion-c2",
        (6, 1, 17249459895071019231, 304, 304, 16),
    ),
    (
        "LEAF_2X2_FIRST_S42",
        "morpion-c2",
        (6, 1, 17249459895071019231, 292, 292, 16),
    ),
    (
        "LEAF_2X2_FIRST_S2009",
        "morpion-c2",
        (6, 1, 3587671900763729170, 294, 294, 16),
    ),
    (
        "ROOT_2_S7",
        "morpion-c2",
        (6, 6, 3555020295714840957, 272, 0, 272),
    ),
    (
        "ROOT_2_S4242",
        "morpion-c2",
        (6, 6, 17336843996061727482, 272, 0, 272),
    ),
    (
        "LEAF_CUT",
        "morpion-c3",
        (2, 2, 2806827915294668876, 8000, 8000, 55),
    ),
    (
        "ROOT_CUT",
        "morpion-c3",
        (3, 3, 14774041858670472746, 6000, 0, 6000),
    ),
    (
        "NESTED_1",
        "tsp",
        (-23719, 7, 6818524468237041220, 28, 28, 0),
    ),
    (
        "NESTED_2",
        "tsp",
        (-28143, 7, 6098529324036162564, 322, 350, 0),
    ),
    ("NRPA_2", "tsp", (-26481, 7, 17642497321395949280, 64, 0, 0)),
    ("UCT", "tsp", (-26890, 7, 9541251875795301372, 300, 171, 0)),
    (
        "UCT_REUSE",
        "tsp",
        (-31410, 7, 1609631444329638400, 300, 191, 0),
    ),
    (
        "TREE_1",
        "tsp",
        (-33337, 7, 17585318618265282524, 300, 133, 0),
    ),
    (
        "TREE_2",
        "tsp",
        (-27268, 7, 4790979008307794960, 300, 125, 0),
    ),
    (
        "TREE_4",
        "tsp",
        (-19197, 7, 18314609066677773980, 300, 118, 0),
    ),
    (
        "NESTED_1",
        "sudoku",
        (81, 30, 12218407743607576893, 30, 30, 0),
    ),
    (
        "NESTED_2",
        "sudoku",
        (81, 30, 15917448987363830598, 435, 465, 0),
    ),
    ("NRPA_2", "sudoku", (81, 30, 11864183751316438865, 64, 0, 0)),
    ("UCT", "sudoku", (81, 30, 16779708892762698706, 300, 30, 0)),
    (
        "UCT_REUSE",
        "sudoku",
        (81, 30, 3386513384996444394, 300, 30, 0),
    ),
    (
        "TREE_1",
        "sudoku",
        (81, 30, 15877583657101342407, 300, 30, 0),
    ),
    ("NESTED_1", "sum", (297, 5, 2419395034776772079, 15, 15, 0)),
    (
        "NESTED_2",
        "sum",
        (271, 5, 17022326364072191667, 90, 105, 0),
    ),
    ("NRPA_2", "sum", (399, 5, 18047672298984193059, 64, 0, 0)),
    ("UCT", "sum", (409, 5, 13227043729328565340, 300, 74, 0)),
    (
        "UCT_REUSE",
        "sum",
        (413, 5, 1535370348215484825, 300, 65, 0),
    ),
    ("TREE_1", "sum", (346, 5, 10433101744443062021, 300, 55, 0)),
    (
        "NESTED_1",
        "needle",
        (21, 7, 9707453042961880613, 14, 14, 0),
    ),
    (
        "NESTED_2",
        "needle",
        (21, 7, 9707453042961880613, 84, 98, 0),
    ),
    ("NRPA_2", "needle", (21, 7, 9707453042961880613, 64, 0, 0)),
    ("UCT", "needle", (21, 7, 9707453042961880613, 300, 18, 0)),
    (
        "UCT_REUSE",
        "needle",
        (21, 7, 9707453042961880613, 300, 19, 0),
    ),
    ("TREE_1", "needle", (21, 7, 9707453042961880613, 300, 18, 0)),
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
        report.client_jobs,
    )
}

/// Runs `spec` on `game`, and unbudgeted leaf- and root-parallel specs
/// at every width of [`worker_sweep`] too; all must agree.
fn run_golden<G>(spec: &SearchSpec, game: &G) -> Golden
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let golden = digest(&spec.run(game));
    for wide in worker_sweep(spec) {
        assert_eq!(digest(&wide.run(game)), golden, "{wide:?}");
    }
    golden
}

/// An unbudgeted leaf- or root-parallel spec at 1, 2 and the CI worker
/// count; nothing for any other spec.
fn worker_sweep(spec: &SearchSpec) -> Vec<SearchSpec> {
    if spec.budget.is_limited() {
        return Vec::new();
    }
    [1, 2, test_workers()]
        .into_iter()
        .filter_map(|workers| {
            let mut wide = spec.clone();
            match &mut wide.algorithm {
                AlgorithmSpec::LeafParallel { threads, .. }
                | AlgorithmSpec::RootParallel { threads, .. } => *threads = workers,
                _ => return None,
            }
            Some(wide)
        })
        .collect()
}

fn run_row(name: &str, game: &str) -> Golden {
    let json = SPECS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no spec named {name}"))
        .1;
    let spec: SearchSpec = serde_json::from_str(json).expect("spec parses");
    match game {
        "samegame-small" => run_golden(&spec, &SameGame::random(6, 6, 3, spec.seed)),
        "samegame-7x7" => run_golden(&spec, &SameGame::random(7, 7, 3, 2)),
        "morpion-c3" => run_golden(&spec, &cross_board(Variant::Disjoint, 3)),
        "morpion-c2" => run_golden(&spec, &cross_board(Variant::Disjoint, 2)),
        "tsp" => run_golden(
            &spec,
            &TspGame::new(TspInstance::random(8, spec.seed), None),
        ),
        "sudoku" => run_golden(&spec, &Sudoku::puzzle(3, 30, spec.seed)),
        "sum" => run_golden(&spec, &SumGame::random(5, 3, spec.seed)),
        "needle" => run_golden(&spec, &NeedleLadder::new(7)),
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
